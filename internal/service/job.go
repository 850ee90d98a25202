package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rmb/internal/loadgen"
	"rmb/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is stepping the simulation.
	StateRunning JobState = "running"
	// StateDone: completed; the result is available.
	StateDone JobState = "done"
	// StateFailed: stopped on an error (including deadline overrun).
	StateFailed JobState = "failed"
	// StateCanceled: stopped by explicit cancellation.
	StateCanceled JobState = "canceled"
	// StateSuspended: checkpointed during a drain; resumable.
	StateSuspended JobState = "suspended"
)

// Terminal reports whether the state is final (no worker will touch the
// job again).
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateSuspended:
		return true
	}
	return false
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID    string   `json:"id"`
	Name  string   `json:"name,omitempty"`
	State JobState `json:"state"`
	// Tick is the simulation clock the worker last reported.
	Tick int64 `json:"tick"`
	// Error carries the failure reason for failed jobs.
	Error string `json:"error,omitempty"`
	// TraceEvents counts telemetry events captured so far.
	TraceEvents int64 `json:"traceEvents,omitempty"`
	// Cached marks a job served from the deterministic run cache instead
	// of a worker; its result and trace are byte-identical to a fresh run.
	Cached bool `json:"cached,omitempty"`
	// Created/Started/Finished are wall-clock lifecycle timestamps.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Timings is the phase-span decomposition of the job's serving
	// lifecycle (nil when the manager runs with observability off).
	Timings *Timings `json:"timings,omitempty"`
}

// ckptReply carries a live-checkpoint response back to the requester.
type ckptReply struct {
	data []byte
	err  error
}

// Job is one simulation run owned by the manager. All simulator state
// (network, driver) lives exclusively in the worker goroutine; the
// fields here are the cross-goroutine view, guarded by mu or atomics.
type Job struct {
	id      string
	spec    JobSpec
	created time.Time

	// resume, when non-nil, restores a checkpointed run instead of
	// starting fresh. Only the worker touches it after admission, and it
	// drops it once the network is restored, so the job table does not
	// keep every resumed checkpoint alive.
	resume *Checkpoint

	ctx    context.Context
	cancel context.CancelFunc

	// ckptReq asks the worker for a mid-run checkpoint at the next tick
	// boundary; the worker replies on the channel carried in the request.
	ckptReq chan chan ckptReply

	tick atomic.Int64

	mu       sync.Mutex
	state    JobState
	errMsg   string
	result   *loadgen.Result
	started  *time.Time
	finished *time.Time
	// ckpt is the frozen state of a suspended job, collected by Drain.
	ckpt *Checkpoint
	// Trace capture (traceW is nil unless the spec asked for it). While
	// the job can still emit events the writer fills traceBuf; the
	// terminal transition seals the bytes into trace, an exact-size
	// slice that is read-only from then on and shared by reference with
	// the run cache, cache-hit jobs and every Trace caller. traceBuf is
	// nil once sealed.
	traceBuf *bytes.Buffer
	traceW   *telemetry.Writer
	trace    []byte

	// cacheKey is the canonical content address of the spec, set at
	// Submit time ("" when caching is off or the job was resumed — a
	// resumed job's trace covers only the post-resume span, so it must
	// never be memoized).
	cacheKey string
	// cached marks a job fulfilled from the run cache; cachedEvents
	// carries the producing run's trace-event count (the cached trace
	// bytes never pass through this job's writer).
	cached       bool
	cachedEvents int64

	// Observability state (absent when the manager runs with
	// DisableObs). obsOn is set once at construction and never written
	// again; the rest is guarded by mu. enqueued/runStart are the
	// monotonic anchors for the queue-wait and run phases.
	obsOn      bool
	hasTimings bool
	timings    Timings
	enqueued   time.Time
	runStart   time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job for listings and polls.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:      j.id,
		Name:    j.spec.Name,
		State:   j.state,
		Tick:    j.tick.Load(),
		Error:   j.errMsg,
		Created: j.created,
	}
	if j.started != nil {
		t := *j.started
		st.Started = &t
	}
	if j.finished != nil {
		t := *j.finished
		st.Finished = &t
	}
	if j.traceW != nil {
		st.TraceEvents = j.traceW.Count() + j.cachedEvents
	}
	st.Cached = j.cached
	if j.hasTimings {
		t := j.timings
		st.Timings = &t
	}
	return st
}

// stampTimings applies one phase update under the job lock; a no-op
// when observability is off, so call sites need no gating.
func (j *Job) stampTimings(f func(*Timings)) {
	if !j.obsOn {
		return
	}
	j.mu.Lock()
	j.hasTimings = true
	f(&j.timings)
	j.mu.Unlock()
}

// Result returns the completed result, or ok=false while the job is
// still pending.
func (j *Job) Result() (loadgen.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return loadgen.Result{}, false
	}
	return *j.result, true
}

// Trace returns the JSONL telemetry captured so far and whether tracing
// is enabled. Safe to call while the job runs. Once the job is terminal
// the trace is sealed and Trace returns the shared bytes without
// copying: the caller must treat them as read-only. Before that it
// returns a private copy of the still-growing stream.
func (j *Job) Trace() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.traceW == nil {
		return nil, false
	}
	if j.traceBuf == nil {
		return j.trace, true
	}
	// The writer buffers; flush so the copy includes every event. Sticky
	// write errors surface in the job's final state, not here (writing to
	// a bytes.Buffer cannot fail).
	_ = j.traceW.Flush()
	return append([]byte(nil), j.traceBuf.Bytes()...), true
}

// Cancel requests the job stop at the next tick boundary. Queued jobs
// are canceled before they start.
func (j *Job) Cancel() { j.cancel() }

// observe is the recorder callback: append one event to the trace under
// the job lock (the HTTP trace endpoint reads concurrently).
func (j *Job) observe(e telemetry.Event) {
	j.mu.Lock()
	j.traceW.Observe(e)
	j.mu.Unlock()
}

// setRunning transitions queued → running (no-op if already canceled),
// stamping the queue-wait phase. The returned duration feeds the queue
// histogram (0 when observability is off).
func (j *Job) setRunning() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return 0, false
	}
	now := time.Now()
	j.state = StateRunning
	j.started = &now
	var wait time.Duration
	if j.obsOn && !j.enqueued.IsZero() {
		wait = now.Sub(j.enqueued)
		j.timings.QueueWaitSec = wait.Seconds()
		j.hasTimings = true
	}
	return wait, true
}

// markRunStart anchors the run phase: the worker calls it after the
// simulator is built (pool acquire and driver construction are their
// own phases), immediately before the tick loop.
func (j *Job) markRunStart() {
	if !j.obsOn {
		return
	}
	j.mu.Lock()
	j.runStart = time.Now()
	j.mu.Unlock()
}

// A terminal transition has two steps, so that a job is never seen as
// finished before everything that follows from its run is in place.
// seal ends the run phase and seals the trace: the job's outputs are
// final, but it still reads as running. publish then sets the terminal
// state, result and error at once. Between the two the worker makes the
// outputs available elsewhere — the run cache — so a client that sees
// "done" and resubmits the same spec is served from the cache.

// seal is the first step. It returns the run-phase duration for the
// histogram and slow-job check (0 if the job never entered its tick
// loop), and false if the job has already finished.
func (j *Job) seal() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return 0, false
	}
	runDur := j.stampRunLocked(time.Now())
	j.closeTraceLocked()
	return runDur, true
}

// publish is the second step: it makes the terminal state visible;
// result may be nil.
func (j *Job) publish(state JobState, res *loadgen.Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = &now
}

// stampRunLocked closes the run phase at now. Callers hold j.mu.
func (j *Job) stampRunLocked(now time.Time) time.Duration {
	if !j.obsOn || j.runStart.IsZero() {
		return 0
	}
	d := now.Sub(j.runStart)
	j.timings.RunSec = d.Seconds()
	j.hasTimings = true
	return d
}

// closeTraceLocked seals the trace once no more events can arrive: it
// closes the writer (flushing its final chunk and recycling the pooled
// chunk buffer), copies traceBuf once into an exact-size slice and
// drops the buffer with its growth slack. Sealing twice is a no-op.
// Callers hold j.mu.
func (j *Job) closeTraceLocked() {
	if j.traceBuf == nil {
		return
	}
	var start time.Time
	if j.obsOn {
		start = time.Now()
	}
	_ = j.traceW.Close()
	j.trace = make([]byte, j.traceBuf.Len())
	copy(j.trace, j.traceBuf.Bytes())
	j.traceBuf = nil
	if j.obsOn {
		j.timings.TraceStreamSec += time.Since(start).Seconds()
		j.hasTimings = true
	}
}

// traceEventCount returns the number of events the job's writer has
// captured (0 for untraced jobs).
func (j *Job) traceEventCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.traceW == nil {
		return 0
	}
	return j.traceW.Count() + j.cachedEvents
}

// fulfillFromCache completes the job instantly from a memoized run. The
// result is the producing run's and the trace is the entry's sealed
// slice itself, shared rather than copied — the simulator is
// deterministic, so both are exactly what a worker would have produced.
func (j *Job) fulfillFromCache(e *cacheEntry) {
	j.mu.Lock()
	now := time.Now()
	res := e.result
	j.state = StateDone
	j.result = &res
	j.started = &now
	j.finished = &now
	j.cached = true
	j.tick.Store(e.finalTick)
	if j.traceW != nil {
		// The writer never saw an event; closing it only recycles its
		// chunk buffer.
		_ = j.traceW.Close()
		j.traceBuf = nil
		j.trace = e.trace
		j.cachedEvents = e.traceEvents
		if j.obsOn {
			j.timings.TraceStreamSec += time.Since(now).Seconds()
		}
	}
	if j.obsOn {
		j.timings.NetworkSource = "cache"
		j.hasTimings = true
	}
	j.mu.Unlock()
	j.cancel()
}

// finishSuspended parks the job's frozen state for Drain to collect.
func (j *Job) finishSuspended(ck *Checkpoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	now := time.Now()
	j.state = StateSuspended
	j.ckpt = ck
	j.finished = &now
	j.stampRunLocked(now)
	j.closeTraceLocked()
}

// Checkpoint is the portable frozen form of a job: its spec, the
// workload generator's position, and the core network checkpoint.
// Manager.Resume turns it back into a queued job.
type Checkpoint struct {
	ID string `json:"id"`
	// Spec is the original job description; the fault plan inside it is
	// NOT re-injected on resume (pending fault timers ride in Core).
	Spec JobSpec `json:"spec"`
	// Driver is the workload generator's resume state, including the
	// delivery count and latency histogram measured so far: the core
	// checkpoint carries only the live ring, not finished messages.
	Driver loadgen.State `json:"driver"`
	// Core is the core.Network checkpoint, carrying its own version and
	// checksum. It is empty for a job suspended before it started.
	Core []byte `json:"-"`
}

// CheckpointVersion is the current job-checkpoint envelope version.
// Version 4 carries the driver's measurement aggregates in the header and
// a version 4 core checkpoint. Older envelopes are refused as
// unsupported: a version 2 core carried the whole message history, and a
// version 3 header's spec (like its core's Config section) still named
// the retired Workers field.
const CheckpointVersion = 4

// The job envelope frames a small JSON header (id, spec, driver) and the
// core checkpoint bytes, which it carries opaquely:
//
//	magic    8 bytes, "rmb-job\x00"
//	version  1 byte, CheckpointVersion
//	length   4 bytes, little-endian length of the header
//	sum      8 bytes, little-endian FNV-64a of the header
//	header   json.Marshal of the Checkpoint (Core excluded)
//	core     the rest: the core checkpoint, verbatim
const (
	jobMagic     = "rmb-job\x00"
	jobHeaderPos = len(jobMagic) + 1 + 4 + 8
)

// EncodeCheckpoint / DecodeCheckpoint are the one encoding used
// everywhere a job checkpoint crosses a process boundary (HTTP bodies,
// *.ckpt files), so the wire form and the file form never drift.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	buf, err := appendEnvelope(nil, ck, len(ck.Core))
	if err != nil {
		return nil, err
	}
	return append(buf, ck.Core...), nil
}

// appendEnvelope appends ck's envelope up to its core bytes, reserving
// room for coreHint more. The worker appends the core checkpoint in
// place; EncodeCheckpoint copies in ck.Core.
func appendEnvelope(dst []byte, ck *Checkpoint, coreHint int) ([]byte, error) {
	hdr, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("service: encoding checkpoint: %w", err)
	}
	dst = slices.Grow(dst, jobHeaderPos+len(hdr)+coreHint)
	dst = append(dst, jobMagic...)
	dst = append(dst, CheckpointVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdr)))
	dst = binary.LittleEndian.AppendUint64(dst, fnvSum(hdr))
	return append(dst, hdr...), nil
}

// DecodeCheckpoint parses bytes produced by EncodeCheckpoint. The header
// is checked and decoded; the core bytes are sliced out of data, not
// copied or scanned (core.UnmarshalCheckpoint validates them when the
// job starts). Checkpoints of another format version, including every
// JSON (version 1) checkpoint, return ErrUnsupportedVersion.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("service: checkpoint: %w: a JSON (version 1) checkpoint; this build reads version %d only",
			ErrUnsupportedVersion, CheckpointVersion)
	}
	if len(data) < len(jobMagic) {
		return nil, fmt.Errorf("service: checkpoint: truncated header (%d bytes)", len(data))
	}
	if magic := data[:len(jobMagic)]; string(magic) != jobMagic {
		return nil, fmt.Errorf("service: checkpoint: bad magic %q", magic)
	}
	if len(data) < jobHeaderPos {
		return nil, fmt.Errorf("service: checkpoint: truncated header (%d bytes)", len(data))
	}
	if v := data[len(jobMagic)]; v != CheckpointVersion {
		return nil, fmt.Errorf("service: checkpoint: %w: version %d (this build reads version %d only)",
			ErrUnsupportedVersion, v, CheckpointVersion)
	}
	n := binary.LittleEndian.Uint32(data[len(jobMagic)+1:])
	if uint64(n) > uint64(len(data)-jobHeaderPos) {
		return nil, fmt.Errorf("service: checkpoint: truncated: header length %d exceeds the %d bytes that remain", n, len(data)-jobHeaderPos)
	}
	hdr := data[jobHeaderPos : jobHeaderPos+int(n)]
	if got, want := fnvSum(hdr), binary.LittleEndian.Uint64(data[jobHeaderPos-8:]); got != want {
		return nil, fmt.Errorf("service: checkpoint: header checksum mismatch: %#x, envelope says %#x", got, want)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(hdr, ck); err != nil {
		return nil, fmt.Errorf("service: checkpoint: decoding header: %w", err)
	}
	// Only EncodeCheckpoint's own bytes are accepted, so a decoded
	// checkpoint re-encodes identically.
	if again, err := json.Marshal(ck); err != nil || !bytes.Equal(again, hdr) {
		return nil, errors.New("service: checkpoint: header is not in canonical form")
	}
	ck.Core = data[jobHeaderPos+int(n):]
	return ck, nil
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
