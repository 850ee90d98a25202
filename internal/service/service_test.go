package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rmb/internal/core"
	"rmb/internal/loadgen"
	"rmb/internal/sim"
	"rmb/internal/telemetry"
)

// smallSpec is a job that finishes quickly.
func smallSpec(seed uint64) JobSpec {
	return JobSpec{
		Name:   "small",
		Config: core.Config{Nodes: 12, Buses: 3, Seed: seed},
		Workload: WorkloadSpec{
			Rate: 0.01, PayloadLen: 4, Warmup: 100, Measure: 1000, Seed: seed,
		},
	}
}

// longSpec is a job that effectively never finishes (a multi-billion
// tick measure window), so cancellation, backpressure and mid-flight
// checkpoints can be asserted without racing completion. The load is
// deliberately below saturation: state stays small and bounded, so a
// mid-run checkpoint is cheap — an overloaded spec would accumulate a
// millions-deep insertion backlog within a wall-clock second and turn
// every checkpoint into a hundred-megabyte marshal.
func longSpec(seed uint64) JobSpec {
	return JobSpec{
		Name:   "long",
		Config: core.Config{Nodes: 16, Buses: 2, Seed: seed},
		Workload: WorkloadSpec{
			Rate: 0.002, PayloadLen: 4, Measure: 2_000_000_000, Seed: seed,
		},
	}
}

// mediumSpec runs long enough (hundreds of milliseconds) to be frozen
// mid-flight reliably, but still completes, so checkpoint/resume flows
// can be compared against an uninterrupted oracle. Chaos faults keep
// pending fault timers crossing the freeze boundary.
func mediumSpec(seed uint64) JobSpec {
	return JobSpec{
		Name:   "medium",
		Config: core.Config{Nodes: 16, Buses: 3, Seed: seed},
		Workload: WorkloadSpec{
			Rate: 0.01, PayloadLen: 4, Warmup: 100, Measure: 150_000, Drain: 20_000, Seed: seed,
		},
		Faults: core.ChaosPlan(16, 3, core.ChaosOptions{
			Seed: seed, Horizon: 120_000, SegmentRate: 0.3, INCRate: 0.15,
			MeanDown: 150, MeanUp: 300,
		}),
	}
}

// chaosSpec exercises faults + tracing through the service.
func chaosSpec(seed uint64) JobSpec {
	return JobSpec{
		Name:   "chaos",
		Config: core.Config{Nodes: 16, Buses: 3, Seed: seed},
		Workload: WorkloadSpec{
			Rate: 0.006, PayloadLen: 4, Warmup: 100, Measure: 1200, Drain: 20_000, Seed: seed,
		},
		Faults: core.ChaosPlan(16, 3, core.ChaosOptions{
			Seed: seed, Horizon: 2000, SegmentRate: 0.3, INCRate: 0.15,
			MeanDown: 150, MeanUp: 300,
		}),
		Trace: true,
	}
}

func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state: %+v", j.ID(), j.Status())
	return Status{}
}

// TestJobMatchesBareRun is the service-level zero-observer-effect proof:
// a job executed through the manager — worker pool, recorder adapter,
// status polling and all — must produce exactly the result (every
// counter, the full latency sample) of the same configuration run bare
// on the caller's goroutine, and tracing must not change it either.
func TestJobMatchesBareRun(t *testing.T) {
	spec := chaosSpec(3)

	bareNet, err := core.NewNetwork(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadgen.Run(bareNet, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Cache disabled: both iterations must genuinely execute (a cache hit
	// would trivially satisfy the comparison). Pooling stays on, so the
	// second run also proves a Reset-recycled network preserves the
	// zero-observer-effect contract.
	m, err := NewManagerOpts(Options{Workers: 2, QueueDepth: 4, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, traced := range []bool{true, false} {
		spec.Trace = traced
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("traced=%v: job ended %s: %s", traced, st.State, st.Error)
		}
		got, ok := j.Result()
		if !ok {
			t.Fatal("done job has no result")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("traced=%v: service result diverged from bare run:\n got:  %+v\n want: %+v", traced, got, want)
		}
	}
}

// TestConcurrentJobsWithCancellation runs ≥8 jobs concurrently over a
// small pool under the race detector: half are long-running and get
// canceled mid-flight, half are short and must complete with correct
// results; status polling and trace reads hammer the jobs throughout.
func TestConcurrentJobsWithCancellation(t *testing.T) {
	m, err := NewManager(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const pairs = 5 // 10 jobs total
	long := make([]*Job, 0, pairs)
	short := make([]*Job, 0, pairs)
	for i := 0; i < pairs; i++ {
		lj, err := m.Submit(longSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		long = append(long, lj)
		sj, err := m.Submit(smallSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		short = append(short, sj)
	}

	// Hammer the observation surfaces while everything runs.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(2)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.List()
			}
		}
	}()
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, j := range long {
					j.Status()
				}
			}
		}
	}()

	// Give the long jobs a moment to actually start stepping, then
	// cancel them mid-flight.
	for _, j := range long {
		deadline := time.Now().Add(10 * time.Second)
		for j.Status().Tick == 0 && j.Status().State != StateDone && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		j.Cancel()
	}

	for _, j := range long {
		st := waitTerminal(t, j)
		if st.State != StateCanceled {
			t.Fatalf("long job %s ended %s (want canceled): %s", st.ID, st.State, st.Error)
		}
		if _, ok := j.Result(); ok {
			t.Fatalf("canceled job %s has a result", st.ID)
		}
	}
	for _, j := range short {
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("short job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		res, ok := j.Result()
		if !ok || res.Submitted == 0 {
			t.Fatalf("short job %s finished without a usable result: %+v", st.ID, res)
		}
	}
	close(stop)
	pollers.Wait()
}

// TestAdmissionBackpressure fills the pool and queue with long jobs and
// requires the next submission to bounce with ErrQueueFull — and to be
// admitted again once capacity frees up.
func TestAdmissionBackpressure(t *testing.T) {
	const workers, depth = 2, 2
	m, err := NewManager(workers, depth)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Fill every worker and every queue slot. A transient full can hit
	// while a worker is still dequeuing its first job, so retry until
	// pool+queue capacity has genuinely been admitted.
	admitted := make([]*Job, 0, workers+depth)
	deadline := time.Now().Add(10 * time.Second)
	for len(admitted) < workers+depth {
		j, err := m.Submit(longSpec(uint64(len(admitted))))
		switch {
		case err == nil:
			admitted = append(admitted, j)
		case errors.Is(err, ErrQueueFull):
			if time.Now().After(deadline) {
				t.Fatalf("queue stayed full with only %d of %d jobs admitted", len(admitted), workers+depth)
			}
			time.Sleep(time.Millisecond)
		default:
			t.Fatal(err)
		}
	}
	// Workers are saturated with unending jobs and the queue holds the
	// rest; the next submission must bounce.
	bounced := false
	for i := 0; i < 100 && !bounced; i++ {
		_, err := m.Submit(longSpec(99))
		switch {
		case errors.Is(err, ErrQueueFull):
			bounced = true
		case err == nil:
			t.Fatal("submission accepted beyond pool+queue capacity")
		default:
			t.Fatal(err)
		}
	}
	if !bounced {
		t.Fatal("queue never reported full at capacity")
	}

	// Free capacity and verify admission recovers.
	for _, j := range admitted {
		j.Cancel()
	}
	for _, j := range admitted {
		waitTerminal(t, j)
	}
	j, err := m.Submit(smallSpec(99))
	if err != nil {
		t.Fatalf("submission after drain-down still rejected: %v", err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("post-backpressure job ended %s: %s", st.State, st.Error)
	}
}

// TestCheckpointResumeAcrossManagers freezes a running job in one
// manager, shuts that manager down, resumes the checkpoint in a fresh
// manager (a stand-in for a daemon restart), and requires the final
// result to match the uninterrupted bare run exactly.
func TestCheckpointResumeAcrossManagers(t *testing.T) {
	spec := mediumSpec(7)

	bareNet, err := core.NewNetwork(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadgen.Run(bareNet, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	m1, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze mid-run: wait until the job has made some progress so the
	// checkpoint actually carries live state.
	deadline := time.Now().Add(10 * time.Second)
	for j.Status().Tick < 50 && time.Now().Before(deadline) {
		if st := j.Status(); st.State.Terminal() {
			t.Fatalf("job finished before it could be frozen: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ck, err := m1.Checkpoint(ctx, j.ID())
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if ck.ID != j.ID() || len(ck.Core) == 0 {
		t.Fatalf("checkpoint looks empty: id=%q core=%d bytes", ck.ID, len(ck.Core))
	}
	j.Cancel()
	waitTerminal(t, j)
	m1.Close()

	// The wire form round-trips (this is what rmbd writes to disk).
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	resumed, err := m2.Resume(*wire)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed.ID() != j.ID() {
		t.Fatalf("resumed job lost its identity: %q != %q", resumed.ID(), j.ID())
	}
	if st := waitTerminal(t, resumed); st.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	got, ok := resumed.Result()
	if !ok {
		t.Fatal("resumed job has no result")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result diverged from uninterrupted run:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestDrainSuspendsJobs drains a manager with running and queued jobs:
// every non-finished job must come back as a resumable checkpoint, and
// resuming them all in a second manager must finish them with results
// matching uninterrupted runs.
func TestDrainSuspendsJobs(t *testing.T) {
	specs := []JobSpec{mediumSpec(11), mediumSpec(12), mediumSpec(13)}
	// Oracles.
	want := make([]loadgen.Result, len(specs))
	for i, spec := range specs {
		n, err := core.NewNetwork(spec.Config)
		if err != nil {
			t.Fatal(err)
		}
		lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = loadgen.Run(n, lcfg)
		if err != nil {
			t.Fatal(err)
		}
	}

	// One worker: job 0 runs, jobs 1-2 queue behind it.
	m1, err := NewManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		if jobs[i], err = m1.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for jobs[0].Status().Tick < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cks, err := m1.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(cks) != len(specs) {
		t.Fatalf("drain returned %d checkpoints for %d unfinished jobs", len(cks), len(specs))
	}
	if _, err := m1.Submit(specs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission during drain returned %v, want ErrDraining", err)
	}

	m2, err := NewManager(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	byID := map[string]int{}
	for i, j := range jobs {
		byID[j.ID()] = i
	}
	for _, ck := range cks {
		j, err := m2.Resume(ck)
		if err != nil {
			t.Fatalf("Resume %s: %v", ck.ID, err)
		}
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("resumed job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		got, _ := j.Result()
		idx, ok := byID[ck.ID]
		if !ok {
			t.Fatalf("checkpoint for unknown job %q", ck.ID)
		}
		if !reflect.DeepEqual(got, want[idx]) {
			t.Fatalf("job %s: drained+resumed result diverged from uninterrupted run:\n got:  %+v\n want: %+v", ck.ID, got, want[idx])
		}
	}
}

// TestResumeIDCollision pre-seeds a manager with a resumed job holding
// an ID the auto-numbering will eventually reach, then submits past it:
// every job must keep a distinct ID, no m.jobs entry may be overwritten,
// and the resumed job must stay reachable throughout.
func TestResumeIDCollision(t *testing.T) {
	m, err := NewManager(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// An empty-core checkpoint (suspended before it started) with an ID
	// squarely in auto-numbering territory.
	resumed, err := m.Resume(Checkpoint{ID: "j2", Spec: smallSpec(50)})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ID() != "j2" {
		t.Fatalf("resume did not keep its free ID: %q", resumed.ID())
	}

	jobs := []*Job{resumed}
	for i := 0; i < 3; i++ {
		j, err := m.Submit(smallSpec(uint64(51 + i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.ID()] {
			t.Fatalf("duplicate job ID %q", j.ID())
		}
		seen[j.ID()] = true
		got, err := m.Get(j.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got != j {
			t.Fatalf("job %q was overwritten in the registry", j.ID())
		}
	}
	if sts := m.List(); len(sts) != len(jobs) {
		t.Fatalf("List returned %d jobs, want %d", len(sts), len(jobs))
	}
	for _, j := range jobs {
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
}

// TestDrainKeepsQueuedResumeProgress resumes a mid-run checkpoint into a
// manager whose only worker is busy, so the resumed job never starts,
// then drains: the drained checkpoint must carry the original core
// payload (not an empty run-from-scratch one), and resuming it in a
// third manager must still finish with the uninterrupted oracle result.
func TestDrainKeepsQueuedResumeProgress(t *testing.T) {
	spec := mediumSpec(31)
	bareNet, err := core.NewNetwork(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadgen.Run(bareNet, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Freeze the job mid-run in manager 1.
	m1, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.Status().Tick < 50 && time.Now().Before(deadline) {
		if st := j.Status(); st.State.Terminal() {
			t.Fatalf("job finished before it could be frozen: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ck, err := m1.Checkpoint(ctx, j.ID())
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(ck.Core) == 0 {
		t.Fatal("mid-run checkpoint has no core payload")
	}
	j.Cancel()
	waitTerminal(t, j)
	m1.Close()

	// Manager 2: the single worker is pinned to an endless job, so the
	// resumed job sits in the queue until the drain.
	m2, err := NewManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := m2.Submit(longSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for blocker.Status().Tick == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	queued, err := m2.Resume(*ck)
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.Status().State; st != StateQueued {
		t.Fatalf("resumed job should be queued behind the blocker, got %s", st)
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	cks, err := m2.Drain(drainCtx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var parked *Checkpoint
	for i := range cks {
		if cks[i].ID == queued.ID() {
			parked = &cks[i]
		}
	}
	if parked == nil {
		t.Fatalf("drain returned no checkpoint for queued resumed job %q", queued.ID())
	}
	if len(parked.Core) == 0 {
		t.Fatal("drain discarded the resumed job's progress (empty core payload)")
	}

	// The parked checkpoint still completes to the oracle result.
	m3, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	final, err := m3.Resume(*parked)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, final); st.State != StateDone {
		t.Fatalf("re-resumed job ended %s: %s", st.State, st.Error)
	}
	got, _ := final.Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drained-while-queued result diverged from uninterrupted run:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestCheckpointQueuedJobFailsFast asks for a checkpoint of a job that
// is still waiting for a worker: the call must return ErrNotRunning
// immediately instead of blocking until the job starts.
func TestCheckpointQueuedJobFailsFast(t *testing.T) {
	m, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	blocker, err := m.Submit(longSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for blocker.Status().Tick == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(longSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.Status().State; st != StateQueued {
		t.Fatalf("second job should be queued, got %s", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := m.Checkpoint(ctx, queued.ID()); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("checkpoint of queued job returned %v, want ErrNotRunning", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("checkpoint of queued job blocked for %v", elapsed)
	}
}

// TestHTTPAPI walks the full HTTP surface: submit, poll, stream the
// trace, fetch the result, cancel, checkpoint+resume, and the 429/400/
// 404/409 error paths.
func TestHTTPAPI(t *testing.T) {
	m, err := NewManager(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	postRaw := func(path string, data []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}
	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return postRaw(path, data)
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}

	// Submit a traced job and poll it to completion.
	spec := chaosSpec(21)
	resp, body := post("/api/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		resp, body = get("/api/v1/jobs/" + st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	// The trace streams as parseable JSONL with the expected events.
	resp, body = get("/api/v1/jobs/" + st.ID + "/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	events, err := telemetry.ReadEvents(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Type] = true
	}
	for _, want := range []string{telemetry.TypeSubmit, telemetry.TypeVB, telemetry.TypeFault} {
		if !kinds[want] {
			t.Errorf("trace has no %q events", want)
		}
	}

	// The result round-trips as JSON and matches the job's view.
	resp, body = get("/api/v1/jobs/" + st.ID + "/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, body)
	}
	var res loadgen.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Submitted == 0 || res.Delivered == 0 {
		t.Fatalf("result moved no traffic: %+v", res)
	}

	// Error paths: unknown job, result of a running job, bad spec, full
	// queue, trace of an untraced job.
	if resp, _ = get("/api/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	if resp, body = post("/api/v1/jobs", JobSpec{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec: %d: %s", resp.StatusCode, body)
	}

	// Fill the pool (2 workers + 2 queue slots) with long jobs, then
	// demand the backpressure signal.
	var ids []string
	sawFull := false
	for i := 0; i < 50 && !sawFull; i++ {
		resp, body = post("/api/v1/jobs", longSpec(uint64(i)))
		switch resp.StatusCode {
		case http.StatusAccepted:
			var s Status
			if err := json.Unmarshal(body, &s); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, s.ID)
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			sawFull = true
		default:
			t.Fatalf("flood submit: %d: %s", resp.StatusCode, body)
		}
	}
	if !sawFull {
		t.Fatal("never saw 429 despite flooding a 2+2 pool")
	}

	// An untraced long job refuses the trace endpoint with 409.
	if resp, _ = get("/api/v1/jobs/" + ids[0] + "/trace"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of untraced job: %d", resp.StatusCode)
	}
	// A running job has no result yet.
	if resp, _ = get("/api/v1/jobs/" + ids[0] + "/result"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of unfinished job: %d", resp.StatusCode)
	}

	// Live-checkpoint the first long job over HTTP, then resume the
	// checkpoint over HTTP (under a fresh ID path: cancel the original
	// first so the ID frees up for reuse).
	j0, err := m.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	waitRunning := time.Now().Add(10 * time.Second)
	for j0.Status().Tick == 0 && time.Now().Before(waitRunning) {
		time.Sleep(time.Millisecond)
	}
	resp, body = post("/api/v1/jobs/"+ids[0]+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d: %s", resp.StatusCode, body)
	}
	ckBody := body
	ck, err := DecodeCheckpoint(ckBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Core) == 0 {
		t.Fatal("HTTP checkpoint has no core payload")
	}

	// Cancel everything outstanding.
	for _, id := range ids {
		if resp, body = post("/api/v1/jobs/"+id+"/cancel", nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: %d: %s", id, resp.StatusCode, body)
		}
	}
	for _, id := range ids {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}

	// A canceled (not running) job refuses the checkpoint endpoint.
	if resp, _ = post("/api/v1/jobs/"+ids[0]+"/checkpoint", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint of canceled job: %d", resp.StatusCode)
	}

	// The checkpoint body goes back as it came, under the JSON content
	// type a generic client sends.
	resp, body = postRaw("/api/v1/resume", ckBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %d: %s", resp.StatusCode, body)
	}
	var rst Status
	if err := json.Unmarshal(body, &rst); err != nil {
		t.Fatal(err)
	}
	rj, err := m.Get(rst.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed long job picks up past the frozen tick; cancel it once
	// that is observed (it would otherwise run for a very long time).
	waitResumed := time.Now().Add(10 * time.Second)
	for rj.Status().Tick == 0 && time.Now().Before(waitResumed) {
		time.Sleep(time.Millisecond)
	}
	if tick := rj.Status().Tick; tick == 0 {
		t.Fatal("resumed job never advanced")
	}
	rj.Cancel()
	waitTerminal(t, rj)

	// A JSON (version 1) checkpoint, or a body cut inside its header, is
	// a 400. The core bytes are not scanned at admission: a body cut
	// inside them is admitted and fails when the worker restores it.
	for _, bad := range [][]byte{[]byte(`{"version":1,"id":"j1"}`), ckBody[:40]} {
		if resp, body = postRaw("/api/v1/resume", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("resume of a bad body: %d: %s", resp.StatusCode, body)
		}
	}
	resp, body = postRaw("/api/v1/resume", ckBody[:len(ckBody)-1])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume of a cut core: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rst); err != nil {
		t.Fatal(err)
	}
	if rj, err = m.Get(rst.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, rj); st.State != StateFailed || !strings.Contains(st.Error, "checksum") {
		t.Fatalf("job resumed from a cut core ended %s: %q", st.State, st.Error)
	}

	// Health endpoint summarizes states.
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("healthz: %d: %s", resp.StatusCode, body)
	}
}

// TestJobDeadline submits an effectively endless job with a 1-second
// wall-clock budget and requires it to fail with a deadline error.
func TestJobDeadline(t *testing.T) {
	m, err := NewManager(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := longSpec(1)
	spec.TimeoutSec = 1
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job ended %s: %q", st.State, st.Error)
	}
}

// TestSpecValidation exercises Validate's rejection surface.
func TestSpecValidation(t *testing.T) {
	base := smallSpec(1)
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"no nodes", func(s *JobSpec) { s.Config.Nodes = 0 }},
		{"zero rate", func(s *JobSpec) { s.Workload.Rate = 0 }},
		{"rate above one", func(s *JobSpec) { s.Workload.Rate = 1.5 }},
		{"no measure", func(s *JobSpec) { s.Workload.Measure = 0 }},
		{"negative warmup", func(s *JobSpec) { s.Workload.Warmup = -1 }},
		{"negative drain", func(s *JobSpec) { s.Workload.Drain = -1 }},
		{"bad pattern", func(s *JobSpec) { s.Workload.Pattern = "bursty" }},
		{"negative timeout", func(s *JobSpec) { s.TimeoutSec = -1 }},
		{"bad fault plan", func(s *JobSpec) {
			s.Faults = core.FaultPlan{Events: []core.FaultEvent{{Kind: core.FaultSegmentFail, Node: 99}}}
		}},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mut(&spec)
			if err := spec.Validate(); err == nil {
				t.Fatalf("spec accepted: %+v", spec)
			}
		})
	}
}

// TestWorkloadPatterns pins the name → DestFn mapping.
func TestWorkloadPatterns(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, name := range []string{"", "uniform", "neighbour", "neighbor", "hotspot"} {
		fn, err := (WorkloadSpec{Pattern: name}).destFn()
		if err != nil {
			t.Fatalf("pattern %q rejected: %v", name, err)
		}
		if d := fn(3, 16, rng); d == 3 || d < 0 || d >= 16 {
			t.Fatalf("pattern %q picked %d from node 3", name, d)
		}
	}
}
