package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rmb/internal/obs"
	"rmb/internal/service"
)

// roundOpts selects how a round is driven.
type roundOpts struct {
	// rec, when set, makes this the traced run: one span per HTTP call,
	// the final timings block of every job, and a scrape of /metrics and
	// /debug/vars on either side of the round.
	rec *spanRecorder
	// daemonFlags are appended to the default daemon flags (-ab).
	daemonFlags []string
	// via, when set, returns the URL the client should use in place of
	// the daemon's own, and a function that shuts the detour down. The
	// smoke test puts a corrupting proxy here.
	via func(daemonURL string) (string, func())
}

// round is everything measured while one plan ran once against one
// fresh daemon (or, for the child workload, one child process).
type round struct {
	wall      time.Duration
	outcomes  []outcome       // in plan order
	late      []time.Duration // open loop: how late each arrival was sent
	cpuSec    float64
	rssPeakKB float64
	rssGrowKB float64
	startMs   float64 // daemon start to listening
	// traced run only
	before, after *scrape
	calls         map[string][]time.Duration
	rejected      int
}

func (r *round) completed() (ok []outcome) {
	for _, o := range r.outcomes {
		if o.err == nil {
			ok = append(ok, o)
		}
	}
	return ok
}

// prepared is a daemon that has been started and warmed for a plan.
type prepared struct {
	d      *daemon
	c      *client
	detour func()
}

func (p *prepared) stop() {
	if p == nil {
		return
	}
	p.c.close()
	if p.detour != nil {
		p.detour()
	}
	p.d.stop()
}

// prepare starts a fresh daemon and sends it the plan's warm-up jobs.
func prepare(e *env, p *plan, opts roundOpts) (*prepared, error) {
	d, err := startDaemon(e, opts.daemonFlags)
	if err != nil {
		return nil, err
	}
	pr := &prepared{d: d}
	url := d.url
	if opts.via != nil {
		url, pr.detour = opts.via(d.url)
	}
	pr.c = newClient(url, e.nproc, nil)
	for i := range p.warm {
		if o := pr.c.runJob(&p.warm[i]); o.err != nil {
			pr.stop()
			return nil, fmt.Errorf("bench: warm-up job %d: %w", i, o.err)
		}
	}
	pr.c.rec = opts.rec
	return pr, nil
}

// runRound replays the plan once. pr may carry a daemon that set-up
// already prepared; otherwise a fresh one is started. The daemon is
// stopped before runRound returns.
func runRound(e *env, p *plan, opts roundOpts, pr *prepared) (*round, error) {
	if p.kind == childLoop {
		return runChild(e, opts.rec)
	}
	if pr == nil {
		var err error
		if pr, err = prepare(e, p, opts); err != nil {
			return nil, err
		}
	}
	defer pr.stop()
	r := &round{outcomes: make([]outcome, len(p.jobs)), startMs: pr.d.startMs}
	var err error
	if opts.rec != nil {
		if r.before, err = scrapeDaemon(pr.d.url); err != nil {
			return nil, err
		}
	}
	u0, err := pr.d.usage()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	switch p.kind {
	case closedLoop, ckptLoop:
		driveClosed(pr.c, p, r)
	case openLoop:
		driveOpen(pr.c, p, r)
	}
	r.wall = time.Since(start)
	u1, err := pr.d.usage()
	if err != nil {
		return nil, fmt.Errorf("bench: daemon gone after the round: %w\n%s", err, pr.d.log)
	}
	r.cpuSec = u1.cpuSec - u0.cpuSec
	r.rssPeakKB = u1.rssPeakKB
	r.rssGrowKB = u1.rssKB - u0.rssKB
	if opts.rec != nil {
		if r.after, err = scrapeDaemon(pr.d.url); err != nil {
			return nil, err
		}
		r.calls, r.rejected = pr.c.calls, pr.c.rejected
	}
	return r, nil
}

// driveClosed runs the job list with p.conc clients, each sending its
// next request only after the previous reply.
func driveClosed(c *client, p *plan, r *round) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.jobs) {
					return
				}
				if p.kind == ckptLoop {
					r.outcomes[i] = c.runCycle(&p.jobs[i], p.ckptAtTick)
				} else {
					r.outcomes[i] = c.runJob(&p.jobs[i])
				}
			}
		}()
	}
	wg.Wait()
}

// inflight is an open-loop arrival that has been admitted and waits for
// the poller.
type inflight struct {
	idx      int
	due      time.Time
	root     int64
	st       service.Status
	polls    int
	lastPoll time.Time
}

// driveOpen sends arrivals on a fixed schedule from one goroutine and
// completes them from another, so a slow reply never delays a later
// arrival. Latency runs from the due time, which charges a stalled
// generator's delay to the requests it held back.
func driveOpen(c *client, p *plan, r *round) {
	r.late = make([]time.Duration, len(p.jobs))
	// Sized to the number of sends: the submitter must never block on
	// the poller.
	admitted := make(chan *inflight, len(p.jobs))
	gap := time.Duration(float64(time.Second) / p.rate)
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(admitted)
		for i := range p.jobs {
			due := t0.Add(time.Duration(i) * gap)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			r.late[i] = max(time.Since(due), 0)
			root := c.rec.reserve()
			st, err := c.submit(root, &p.jobs[i])
			if err != nil {
				now := time.Now()
				r.outcomes[i] = outcome{latency: now.Sub(due), err: err}
				c.rec.finish(root, "", "job", due, now)
				continue
			}
			admitted <- &inflight{idx: i, due: due, root: root, st: st, lastPoll: time.Now()}
		}
	}()
	go func() {
		defer wg.Done()
		var list []*inflight
		open := true
		for open || len(list) > 0 {
			if len(list) == 0 {
				f, ok := <-admitted
				if !ok {
					return
				}
				list = append(list, f)
			}
			for more := true; more && open; {
				select {
				case f, ok := <-admitted:
					if !ok {
						open = false
					} else {
						list = append(list, f)
					}
				default:
					more = false
				}
			}
			progressed := false
			keep := list[:0]
			for _, f := range list {
				if !f.st.State.Terminal() {
					if time.Since(f.lastPoll) >= pollGap(f.polls) {
						st, err := c.status(f.root, f.st.ID)
						f.polls++
						f.lastPoll = time.Now()
						if err != nil {
							finishOpen(c, p, r, f, err)
							progressed = true
							continue
						}
						f.st = st
					}
					if !f.st.State.Terminal() {
						keep = append(keep, f)
						continue
					}
				}
				var err error
				if f.st.State != service.StateDone {
					err = fmt.Errorf("job %s ended %s: %s", f.st.ID, f.st.State, f.st.Error)
				}
				finishOpen(c, p, r, f, err)
				progressed = true
			}
			list = keep
			if !progressed {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
}

func finishOpen(c *client, p *plan, r *round, f *inflight, err error) {
	o := outcome{polls: f.polls, id: f.st.ID}
	if err == nil {
		err = c.collect(f.root, &p.jobs[f.idx], f.st, &o)
	}
	end := time.Now()
	o.latency, o.err = end.Sub(f.due), err
	c.rec.finish(f.root, f.st.ID, "job", f.due, end)
	c.finalTimings(f.root, &o)
	r.outcomes[f.idx] = o
}

// runChild regenerates the paper's artifacts once with the built
// rmbbench and compares its output, byte for byte, with the reference
// the repository ships.
func runChild(e *env, rec *spanRecorder) (*round, error) {
	want, err := os.ReadFile(filepath.Join(e.root, "docs", "artifacts.txt"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.rmbbench, "-all", "-j", "1")
	cmd.Dir = e.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The child's peak RSS is polled from /proc while it runs: the
	// ru_maxrss that wait4 returns starts from the parent's own peak
	// (Linux carries it across vfork+exec), so it would report the
	// harness's memory, not the child's.
	var peakKB float64
	exited := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if u, err := readProc(cmd.Process.Pid); err == nil {
				peakKB = max(peakKB, u.rssPeakKB)
			}
			select {
			case <-exited:
				return
			case <-tick.C:
			}
		}
	}()
	runErr := cmd.Wait()
	end := time.Now()
	close(exited)
	<-polled
	o := outcome{latency: end.Sub(start), id: "rmbbench"}
	switch {
	case runErr != nil:
		o.err = fmt.Errorf("rmbbench -all: %v: %s", runErr, bytes.TrimSpace(stderr.Bytes()))
	case !bytes.Equal(stdout.Bytes(), want):
		o.err = errors.New("rmbbench -all output differs from docs/artifacts.txt")
	}
	rec.add(0, o.id, "child", start, end)
	r := &round{wall: o.latency, outcomes: []outcome{o}, rssPeakKB: peakKB}
	if ps := cmd.ProcessState; ps != nil {
		r.cpuSec = (ps.UserTime() + ps.SystemTime()).Seconds()
	}
	return r, nil
}

// scrape is one reading of what the daemon publishes about itself.
type scrape struct {
	httpSec   float64 // Σ rmbd_http_request_seconds_sum over routes and codes
	httpCount float64
	pool      service.PoolStats
	cache     service.CacheStats
	mem       runtime.MemStats
	metrics   []byte  // the /metrics body, for the parser ladder
	metricsMs float64 // client time of the /metrics request
}

func scrapeDaemon(base string) (*scrape, error) {
	c := newClient(base, 1, nil)
	defer c.close()
	s := &scrape{}
	code, body, d, err := c.call(0, "", "metrics", "GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("bench: GET /metrics: HTTP %d: %v", code, err)
	}
	s.metrics, s.metricsMs = body, ms(d)
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("bench: /metrics does not parse: %w", err)
	}
	if f := exp.Family("rmbd_http_request_seconds"); f != nil {
		hs, err := f.Histograms()
		if err != nil {
			return nil, fmt.Errorf("bench: /metrics: %w", err)
		}
		for _, h := range hs {
			s.httpSec += h.Sum
			s.httpCount += float64(h.Count)
		}
	}
	code, body, _, err = c.call(0, "", "vars", "GET", "/debug/vars", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("bench: GET /debug/vars: HTTP %d: %v", code, err)
	}
	var vars struct {
		Mem   runtime.MemStats   `json:"memstats"`
		Pool  service.PoolStats  `json:"rmbd_pool"`
		Cache service.CacheStats `json:"rmbd_cache"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return nil, fmt.Errorf("bench: decoding /debug/vars: %w", err)
	}
	s.mem, s.pool, s.cache = vars.Mem, vars.Pool, vars.Cache
	return s, nil
}
