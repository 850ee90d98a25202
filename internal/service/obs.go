package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"rmb/internal/loadgen"
	"rmb/internal/obs"
)

// Timings is a job's lifecycle phase decomposition in wall-clock
// seconds — the serving-tier mirror of the paper's latency
// decomposition (establish latency, head-of-line blocking, retries)
// that rmbtrace computes from simulation traces. Every field is stamped
// from monotonic time.Now() deltas by the goroutine that owns the
// phase, under the job lock; none of it feeds back into the simulation,
// which is what the 32-seed observability differential proves.
type Timings struct {
	// AdmissionSec spans Submit/Resume entry to the job being queued
	// (validation, canonicalization, cache lookup, queue insert).
	AdmissionSec float64 `json:"admissionSec,omitempty"`
	// CacheLookupSec is the content-address hash + cache probe inside
	// admission (0 when caching is disabled).
	CacheLookupSec float64 `json:"cacheLookupSec,omitempty"`
	// QueueWaitSec spans queue insert to a worker picking the job up —
	// the head-of-line blocking signal a front tier sheds load on.
	QueueWaitSec float64 `json:"queueWaitSec,omitempty"`
	// NetworkSource says how the job got its simulator: "cold" (full
	// NewNetwork build), "reuse" (pool hit re-armed by Reset),
	// "restore" (checkpoint deserialization), or "cache" (no simulator
	// at all — the run cache answered).
	NetworkSource string `json:"networkSource,omitempty"`
	// PoolAcquireSec is the cost of NetworkSource: the build, the
	// Reset, or the checkpoint restore.
	PoolAcquireSec float64 `json:"poolAcquireSec,omitempty"`
	// RunSec spans the worker's tick loop, first step to terminal
	// state. Per-event trace encoding happens between ticks, so its
	// cost rides inside RunSec by design (stamping every event would
	// put two clock reads on the trace hot path).
	RunSec float64 `json:"runSec,omitempty"`
	// TraceStreamSec is the trace stream's out-of-loop cost: sealing
	// the writer's final chunk at job end, or copying memoized trace
	// bytes on a cache hit.
	TraceStreamSec float64 `json:"traceStreamSec,omitempty"`
	// ResultEncodeSec is the most recent JSON encode of the result on
	// the HTTP result endpoint (0 until a client fetches it).
	ResultEncodeSec float64 `json:"resultEncodeSec,omitempty"`
}

// svcHist aggregates per-job phases into the fixed-bucket histograms
// /metrics exposes. Nil on a Manager built with DisableObs.
type svcHist struct {
	queue obs.Histogram // rmbd_job_queue_seconds
	run   obs.Histogram // rmbd_job_run_seconds
}

// HTTP routes are a closed enumeration so the per-(route,code)
// histogram matrix is a fixed array — observing a request is two array
// indexes and an atomic add, never a map insert.
type route int

const (
	routeSubmit route = iota
	routeList
	routeStatus
	routeTrace
	routeResult
	routeCancel
	routeCheckpoint
	routeResume
	routeHealthz
	routeMetrics
	numRoutes
)

var routeNames = [numRoutes]string{
	"submit", "list", "status", "trace", "result",
	"cancel", "checkpoint", "resume", "healthz", "metrics",
}

// codeLabels is the closed set of status-code labels; responses outside
// it collapse into "other" rather than growing the series set.
var codeLabels = [...]string{"200", "202", "400", "404", "409", "429", "500", "503", "other"}

const numCodes = len(codeLabels)

func codeIndex(code int) int {
	switch code {
	case 200:
		return 0
	case 202:
		return 1
	case 400:
		return 2
	case 404:
		return 3
	case 409:
		return 4
	case 429:
		return 5
	case 500:
		return 6
	case 503:
		return 7
	}
	return 8
}

// httpHist is the fixed (route, code) histogram matrix behind
// rmbd_http_request_seconds.
type httpHist struct {
	h [numRoutes][numCodes]obs.Histogram
}

func (hh *httpHist) observe(rt route, code int, d time.Duration) {
	hh.h[rt][codeIndex(code)].Observe(d)
}

// statusWriter captures the response code for the HTTP middleware.
// Pooled so instrumentation adds no per-request allocation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

var swPool = sync.Pool{New: func() any { return &statusWriter{} }}

// instrument wraps one routed handler with latency observation and
// structured request logging.
func (a *API) instrument(rt route, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.code = w, http.StatusOK
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		code := sw.code
		sw.ResponseWriter = nil
		swPool.Put(sw)
		if a.hist != nil {
			a.hist.observe(rt, code, d)
		}
		if a.log != nil {
			a.log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
				slog.String("route", routeNames[rt]),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", code),
				slog.Duration("duration", d),
			)
		}
	}
}

// jobLog builds the per-job logger: the manager logger plus the job's
// identity attrs (id, name, cache key, network shape). Nil when logging
// is disabled, so the hot path pays only a nil check.
func (m *Manager) jobLog(j *Job) *slog.Logger {
	if m.logger == nil {
		return nil
	}
	attrs := make([]any, 0, 5)
	attrs = append(attrs, slog.String("job", j.id))
	if j.spec.Name != "" {
		attrs = append(attrs, slog.String("name", j.spec.Name))
	}
	if j.cacheKey != "" {
		attrs = append(attrs, slog.String("cacheKey", j.cacheKey[:12]))
	}
	attrs = append(attrs,
		slog.Int("nodes", j.spec.Config.Nodes),
		slog.Int("buses", j.spec.Config.Buses))
	return m.logger.With(attrs...)
}

// logJobDone emits the job's terminal log line and the slow-job
// warning. Called by finishJob after the state transition.
func (m *Manager) logJobDone(j *Job, st Status, runDur time.Duration) {
	if lg := m.jobLog(j); lg != nil {
		switch st.State {
		case StateFailed:
			lg.Warn("job failed", slog.String("error", st.Error), slog.Int64("tick", st.Tick))
		case StateDone:
			lg.Info("job done",
				slog.Int64("tick", st.Tick),
				slog.Duration("run", runDur),
				slog.Int64("traceEvents", st.TraceEvents))
		default:
			lg.Info("job finished", slog.String("state", string(st.State)), slog.Int64("tick", st.Tick))
		}
		if m.slowJob > 0 && runDur > m.slowJob {
			lg.Warn("slow job",
				slog.Duration("run", runDur),
				slog.Duration("threshold", m.slowJob))
		}
	}
}

// finishJob is the terminal-transition wrapper every worker exit path
// uses: it seals the job, runs ready (if any) while the job still reads
// as running, publishes the terminal state, feeds the run-phase
// histogram, and logs.
func (m *Manager) finishJob(j *Job, state JobState, res *loadgen.Result, errMsg string, ready func()) {
	runDur, ok := j.seal()
	if !ok {
		return
	}
	if ready != nil {
		ready()
	}
	j.publish(state, res, errMsg)
	if m.hist != nil && runDur > 0 {
		m.hist.run.Observe(runDur)
	}
	m.logJobDone(j, j.Status(), runDur)
	if m.afterTerminal != nil {
		m.afterTerminal(j)
	}
}

// runtimeMetrics renders the Go runtime health gauges: the signals an
// operator checks first when a backend's latency histograms go bad
// (goroutine leak, heap growth, GC pressure).
func writeRuntimeMetrics(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rows := []struct {
		name, typ, help string
		value           float64
	}{
		{"rmbd_go_goroutines", "gauge", "Live goroutines in the daemon process.", float64(runtime.NumGoroutine())},
		{"rmbd_go_heap_alloc_bytes", "gauge", "Heap bytes currently allocated.", float64(ms.HeapAlloc)},
		{"rmbd_go_gc_runs_total", "counter", "Completed GC cycles.", float64(ms.NumGC)},
		{"rmbd_go_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs) / 1e9},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n",
			r.name, r.help, r.name, r.typ, r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}
