package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"rmb/internal/loadgen"
	"rmb/internal/service"
)

// span is one traced interval at a layer boundary of the harness.
// Spans of one job share Job; Parent is the enclosing span's ID (0 for
// a root). They are kept in memory and written out when the run ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// add records a finished span. A nil recorder (the plain run) records
// nothing.
func (r *spanRecorder) add(parent int64, jobID, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Job: jobID, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// reserve hands out a span ID before the span ends, so children can
// name their parent; finish fills it in.
func (r *spanRecorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1)})
	return int64(len(r.spans))
}

func (r *spanRecorder) finish(id int64, jobID, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1] = span{ID: id, Job: jobID, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
}

// selfMs returns, for every root span, its duration minus the part of
// it that its child spans cover: the time a job spent in the harness
// itself (poll sleeps, decoding, checks) and not inside an HTTP call.
// Children are sequential within a job, so their durations add up.
func (r *spanRecorder) selfMs() []float64 {
	covered := map[int64]int64{}
	for _, s := range r.spans {
		if p := s.Parent; p != 0 && s.End <= r.spans[p-1].End {
			covered[p] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Parent == 0 {
			out = append(out, float64(s.End-s.Start-covered[s.ID])/1e6)
		}
	}
	return out
}

// client speaks the rmbd job protocol to one daemon.
type client struct {
	base string
	hc   *http.Client
	rec  *spanRecorder // nil unless this is the traced run

	mu sync.Mutex
	// first holds, per job key, the first result body and trace digest
	// seen: every later response for that key must match it.
	first    map[int]firstSeen
	calls    map[string][]time.Duration // client-side HTTP time by call name
	rejected int                        // 429 responses
}

type firstSeen struct {
	result   []byte
	traceSum uint64
	traceLen int
}

func newClient(base string, conns int, rec *spanRecorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{
		base:  base,
		hc:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		rec:   rec,
		first: map[int]firstSeen{},
		calls: map[string][]time.Duration{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call makes one HTTP request and reads the whole reply: the duration is
// first byte sent to last byte received.
func (c *client) call(parent int64, jobID, name, method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	d := end.Sub(start)
	if c.rec != nil {
		c.rec.add(parent, jobID, name, start, end)
		c.mu.Lock()
		c.calls[name] = append(c.calls[name], d)
		c.mu.Unlock()
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		c.mu.Lock()
		c.rejected++
		c.mu.Unlock()
	}
	return resp.StatusCode, data, d, err
}

// outcome is what the harness learned from one operation.
type outcome struct {
	latency time.Duration
	err     error // non-nil marks a failed operation
	id      string
	cached  bool
	ticks   int64
	polls   int
	stats   loadgen.Result
	// checkpoint cycle only
	ckptRTT    time.Duration
	resumeRTT  time.Duration // POST /resume alone
	resumeTime time.Duration // POST /resume to result fetched
	ckptBody   []byte        // kept in the traced run for the envelope ladder
	// traced run only
	timings    *service.Timings
	traceBytes int
}

// pollGap is the client's polling schedule: tight while a small job is
// likely to finish, relaxed once it is clearly a long one.
func pollGap(polls int) time.Duration {
	if polls < 20 {
		return time.Millisecond
	}
	return 5 * time.Millisecond
}

func decodeStatus(code, want int, data []byte) (service.Status, error) {
	var st service.Status
	if code != want {
		return st, fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("decoding status: %w", err)
	}
	return st, nil
}

// submit posts the job and reports its status as admitted.
func (c *client) submit(root int64, j *job) (service.Status, error) {
	code, data, _, err := c.call(root, "", "submit", "POST", "/api/v1/jobs", j.body)
	if err != nil {
		return service.Status{}, err
	}
	return decodeStatus(code, http.StatusAccepted, data)
}

func (c *client) status(root int64, id string) (service.Status, error) {
	code, data, _, err := c.call(root, id, "status", "GET", "/api/v1/jobs/"+id, nil)
	if err != nil {
		return service.Status{}, err
	}
	return decodeStatus(code, http.StatusOK, data)
}

// await polls until the job reaches a terminal state; anything but done
// is a failure. until, when set, stops the wait early.
func (c *client) await(root int64, st service.Status, polls *int, until func(service.Status) bool) (service.Status, error) {
	for {
		if until != nil && until(st) {
			return st, nil
		}
		if st.State.Terminal() {
			if until == nil && st.State == service.StateDone {
				return st, nil
			}
			return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollGap(*polls))
		var err error
		if st, err = c.status(root, st.ID); err != nil {
			return st, err
		}
		*polls++
	}
}

// collect fetches the result (and the trace of a traced job), checks
// them, and fills the outcome. The job must be done.
func (c *client) collect(root int64, j *job, st service.Status, o *outcome) error {
	o.id, o.cached, o.ticks = st.ID, st.Cached, st.Tick
	code, body, _, err := c.call(root, st.ID, "result", "GET", "/api/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("result: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &o.stats); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	seen := firstSeen{result: body}
	if j.spec.Trace {
		code, trace, _, err := c.call(root, st.ID, "trace", "GET", "/api/v1/jobs/"+st.ID+"/trace", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK || len(trace) == 0 {
			return fmt.Errorf("trace: HTTP %d, %d bytes", code, len(trace))
		}
		h := fnv.New64a()
		h.Write(trace)
		seen.traceSum, seen.traceLen = h.Sum64(), len(trace)
		o.traceBytes = len(trace)
	}
	if j.want != nil {
		if err := j.want.diff(o.stats); err != nil {
			return err
		}
	}
	if j.key >= 0 {
		c.mu.Lock()
		prev, ok := c.first[j.key]
		if !ok {
			c.first[j.key] = seen
		}
		c.mu.Unlock()
		if ok && (!bytes.Equal(prev.result, seen.result) || prev.traceSum != seen.traceSum || prev.traceLen != seen.traceLen) {
			return fmt.Errorf("job %s (cached=%v): response differs from the first response for key %d", st.ID, st.Cached, j.key)
		}
	}
	return nil
}

// finalTimings re-reads the status after the result fetch, when the
// daemon has stamped resultEncodeSec. Traced run only, outside latency.
func (c *client) finalTimings(root int64, o *outcome) {
	if c.rec == nil || o.err != nil {
		return
	}
	if st, err := c.status(root, o.id); err == nil {
		o.timings = st.Timings
	}
}

// runJob is one closed-loop operation: submit, poll unless the reply is
// already done (a cache hit), fetch the result.
func (c *client) runJob(j *job) outcome {
	var o outcome
	root := c.rec.reserve()
	start := time.Now()
	st, err := c.submit(root, j)
	if err == nil {
		st, err = c.await(root, st, &o.polls, nil)
	}
	if err == nil {
		err = c.collect(root, j, st, &o)
	}
	end := time.Now()
	o.latency, o.err = end.Sub(start), err
	c.rec.finish(root, st.ID, "job", start, end)
	c.finalTimings(root, &o)
	return o
}

// runCycle is one checkpoint cycle: run to atTick, freeze, cancel,
// resume from the frozen bytes, and check the resumed result against
// the uninterrupted oracle.
func (c *client) runCycle(j *job, atTick int64) outcome {
	var o outcome
	root := c.rec.reserve()
	start := time.Now()
	err := func() error {
		st, err := c.submit(root, j)
		if err != nil {
			return err
		}
		o.id = st.ID
		if st, err = c.await(root, st, &o.polls, func(s service.Status) bool { return s.Tick >= atTick }); err != nil {
			return err
		}
		code, ck, d, err := c.call(root, st.ID, "checkpoint", "POST", "/api/v1/jobs/"+st.ID+"/checkpoint", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("checkpoint: HTTP %d: %s", code, bytes.TrimSpace(ck))
		}
		o.ckptRTT = d
		code, data, _, err := c.call(root, st.ID, "cancel", "POST", "/api/v1/jobs/"+st.ID+"/cancel", nil)
		if err != nil {
			return err
		}
		if st, err = decodeStatus(code, http.StatusAccepted, data); err != nil {
			return err
		}
		// Cancelling a job that finished while the checkpoint reply was in
		// flight is a no-op, not an error; the plan is sized so that it
		// is rare.
		stopped := func(s service.Status) bool { return s.State == service.StateCanceled || s.State == service.StateDone }
		if _, err = c.await(root, st, &o.polls, stopped); err != nil {
			return err
		}
		resumeStart := time.Now()
		code, data, d, err = c.call(root, st.ID, "resume", "POST", "/api/v1/resume", ck)
		if err != nil {
			return err
		}
		o.resumeRTT = d
		if st, err = decodeStatus(code, http.StatusAccepted, data); err != nil {
			return err
		}
		if st, err = c.await(root, st, &o.polls, nil); err != nil {
			return err
		}
		if err := c.collect(root, j, st, &o); err != nil {
			return err
		}
		o.resumeTime = time.Since(resumeStart)
		if c.rec != nil {
			o.ckptBody = ck
		}
		return nil
	}()
	end := time.Now()
	o.latency, o.err = end.Sub(start), err
	c.rec.finish(root, o.id, "cycle", start, end)
	c.finalTimings(root, &o)
	return o
}
