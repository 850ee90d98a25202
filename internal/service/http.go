package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"
)

// API wraps a Manager in the rmbd HTTP surface:
//
//	POST /api/v1/jobs            submit a JobSpec  → 202 {"id":...}
//	                             queue full        → 429 + Retry-After
//	GET  /api/v1/jobs            list job statuses
//	GET  /api/v1/jobs/{id}       one job's status (includes phase timings)
//	GET  /api/v1/jobs/{id}/trace JSONL telemetry captured so far
//	GET  /api/v1/jobs/{id}/result  completed result → 200, pending → 409
//	POST /api/v1/jobs/{id}/cancel  request cancellation → 202
//	POST /api/v1/jobs/{id}/checkpoint  freeze a running job → binary
//	                             checkpoint (EncodeCheckpoint bytes)
//	POST /api/v1/resume          admit those bytes, as they stand
//	                             → 202 {"id":...}
//	GET  /healthz                liveness + job/pool/cache counters
//	GET  /metrics                Prometheus text exposition (pool, cache,
//	                             jobs, latency histograms, runtime gauges)
//	GET  /debug/vars             expvar JSON (rmbd_pool / rmbd_cache)
//	GET  /debug/pprof/           standard pprof handlers
//
// Every response is JSON except the trace stream (application/x-ndjson),
// the checkpoint (application/octet-stream) and the Prometheus
// exposition (text/plain). Each API route runs under
// the instrument middleware, which feeds rmbd_http_request_seconds and
// emits one structured log line per request.
type API struct {
	m *Manager
	// log mirrors the manager's logger (nil when logging is off).
	log *slog.Logger
	// hist is the per-(route,code) request-latency matrix; nil when the
	// manager was built with DisableObs.
	hist *httpHist
}

// NewAPI builds the HTTP surface over a manager, inheriting its
// observability configuration (logger, histograms on/off).
func NewAPI(m *Manager) *API {
	a := &API{m: m, log: m.logger}
	if m.hist != nil {
		a.hist = &httpHist{}
	}
	return a
}

// Handler returns the API mux.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", a.instrument(routeSubmit, a.submit))
	mux.HandleFunc("GET /api/v1/jobs", a.instrument(routeList, a.list))
	mux.HandleFunc("GET /api/v1/jobs/{id}", a.instrument(routeStatus, a.status))
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", a.instrument(routeTrace, a.trace))
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", a.instrument(routeResult, a.result))
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", a.instrument(routeCancel, a.cancel))
	mux.HandleFunc("POST /api/v1/jobs/{id}/checkpoint", a.instrument(routeCheckpoint, a.checkpoint))
	mux.HandleFunc("POST /api/v1/resume", a.instrument(routeResume, a.resume))
	mux.HandleFunc("GET /healthz", a.instrument(routeHealthz, a.healthz))
	mux.HandleFunc("GET /metrics", a.instrument(routeMetrics, a.metrics))
	registerExpvar(a.m)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// errorf is the API's error sink for failures that cannot reach the
// client (post-status-line write errors, encode failures).
func (a *API) errorf(msg string, args ...any) {
	if a.log != nil {
		a.log.Error(msg, args...)
	}
}

// writeJSON marshals before touching the response: an encoding failure
// becomes a 500 error body instead of a half-written 200 with a silently
// dropped error (the old `_ = Encode(v)` bug). Write failures after the
// status line cannot be reported to the client, so they are logged.
func (a *API) writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		a.errorf("response encoding failed", slog.String("type", fmt.Sprintf("%T", v)), slog.Any("err", err))
		http.Error(w, `{"error":"internal: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	// Keep the trailing newline json.Encoder used to emit, so response
	// bytes are unchanged for well-formed values.
	a.writeBody(w, code, "application/json", append(data, '\n'))
}

// writeBody writes a complete, already-encoded response body.
func (a *API) writeBody(w http.ResponseWriter, code int, contentType string, data []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	if _, err := w.Write(data); err != nil {
		a.errorf("response write failed", slog.Int("status", code), slog.Any("err", err))
	}
}

type errorBody struct {
	Error string `json:"error"`
}

// writeAdmitError maps Submit/Resume failures: backpressure to 429 with
// a retry hint, drain to 503, anything else to a 400 validation error.
func (a *API) writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		a.writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		a.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		a.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		a.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding job spec: %v", err)})
		return
	}
	j, err := a.m.Submit(spec)
	if err != nil {
		a.writeAdmitError(w, err)
		return
	}
	a.writeJSON(w, http.StatusAccepted, j.Status())
}

// resume admits a checkpoint body exactly as the checkpoint handler wrote
// it; the request's Content-Type is not consulted.
func (a *API) resume(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		a.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading checkpoint: %v", err)})
		return
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		a.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	j, err := a.m.Resume(*ck)
	if err != nil {
		a.writeAdmitError(w, err)
		return
	}
	a.writeJSON(w, http.StatusAccepted, j.Status())
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	a.writeJSON(w, http.StatusOK, a.m.List())
}

// jobOr404 resolves {id} or writes the 404.
func (a *API) jobOr404(w http.ResponseWriter, r *http.Request) *Job {
	j, err := a.m.Get(r.PathValue("id"))
	if err != nil {
		a.writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return nil
	}
	return j
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	if j := a.jobOr404(w, r); j != nil {
		a.writeJSON(w, http.StatusOK, j.Status())
	}
}

func (a *API) trace(w http.ResponseWriter, r *http.Request) {
	j := a.jobOr404(w, r)
	if j == nil {
		return
	}
	data, ok := j.Trace()
	if !ok {
		a.writeJSON(w, http.StatusConflict, errorBody{Error: "job was not submitted with trace enabled"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = w.Write(data)
}

func (a *API) result(w http.ResponseWriter, r *http.Request) {
	j := a.jobOr404(w, r)
	if j == nil {
		return
	}
	res, ok := j.Result()
	if !ok {
		st := j.Status()
		a.writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job %s has no result (state %s)", st.ID, st.State),
		})
		return
	}
	start := time.Now()
	a.writeJSON(w, http.StatusOK, res)
	j.stampTimings(func(t *Timings) { t.ResultEncodeSec = time.Since(start).Seconds() })
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	j := a.jobOr404(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	a.writeJSON(w, http.StatusAccepted, j.Status())
}

func (a *API) checkpoint(w http.ResponseWriter, r *http.Request) {
	j := a.jobOr404(w, r)
	if j == nil {
		return
	}
	data, err := a.m.CheckpointBytes(r.Context(), j.ID())
	if err != nil {
		if errors.Is(err, ErrNotRunning) {
			a.writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
			return
		}
		a.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	// The worker's EncodeCheckpoint bytes are the body as they stand,
	// with nothing appended: /resume accepts exactly these bytes.
	a.writeBody(w, http.StatusOK, "application/octet-stream", data)
}

func (a *API) healthz(w http.ResponseWriter, r *http.Request) {
	states := map[JobState]int{}
	for _, st := range a.m.List() {
		states[st.State]++
	}
	a.writeJSON(w, http.StatusOK, map[string]any{
		"ok":    true,
		"jobs":  states,
		"pool":  a.m.PoolStats(),
		"cache": a.m.CacheStats(),
	})
}

// metrics serves the daemon's serving-health counters (pool, cache,
// jobs by state), latency histograms and runtime gauges in Prometheus
// text exposition format 0.0.4.
func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := writePrometheus(w, a.m, a.hist); err != nil {
		a.errorf("metrics write failed", slog.Any("err", err))
	}
}
