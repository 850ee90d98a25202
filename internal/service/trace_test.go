package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rmb/internal/core"
	"rmb/internal/loadgen"
	"rmb/internal/telemetry"
)

// bareTrace runs spec on the caller's goroutine with a plain
// telemetry.Writer recording it: the JSONL a traced job must serve.
func bareTrace(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf)
	cfg := spec.Config
	cfg.Recorder = &telemetry.Adapter{Observe: w.Observe}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadgen.Run(n, lcfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSealedTraceZeroAlloc: once a traced job is terminal its trace is
// sealed, and reading it copies nothing.
func TestSealedTraceZeroAlloc(t *testing.T) {
	m, err := NewManagerOpts(Options{Workers: 1, QueueDepth: 4, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(chaosSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if tr, ok := j.Trace(); !ok || len(tr) == 0 {
		t.Fatal("traced job served no trace")
	}
	if allocs := testing.AllocsPerRun(100, func() { j.Trace() }); allocs != 0 {
		t.Fatalf("Trace on a sealed job made %v allocations, want 0", allocs)
	}
}

// TestTraceSharedAcrossCache pins the single-copy design: the producing
// job, its cache entry and a later cache-hit job all hand out one
// backing array, and it is exact-size.
func TestTraceSharedAcrossCache(t *testing.T) {
	m, err := NewManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := chaosSpec(6)
	producer, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, producer); st.State != StateDone || st.Cached {
		t.Fatalf("producer: %+v", st)
	}
	own, _ := producer.Trace()
	if len(own) == 0 || cap(own) != len(own) {
		t.Fatalf("sealed trace is %d bytes with capacity %d, want exact-size and non-empty", len(own), cap(own))
	}
	if again, _ := producer.Trace(); unsafe.SliceData(again) != unsafe.SliceData(own) {
		t.Fatal("second Trace call on a sealed job returned a different array")
	}

	e, ok := m.cache.get(producer.cacheKey, true)
	if !ok {
		t.Fatal("producer's run was not memoized with its trace")
	}
	if unsafe.SliceData(e.trace) != unsafe.SliceData(own) {
		t.Fatal("cache entry holds a copy of the producer's trace")
	}

	hit, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := hit.Status(); !st.Cached {
		t.Fatalf("resubmission not served from cache: %+v", st)
	}
	served, _ := hit.Trace()
	if unsafe.SliceData(served) != unsafe.SliceData(own) || len(served) != len(own) {
		t.Fatal("cache-hit job does not share the producer's trace")
	}
}

// TestTraceHTTPWhileSealing reads GET /trace from several goroutines
// while a traced job runs, seals and finishes (run it under -race).
// Every body must be a prefix of the final trace, and the final trace
// must equal a bare telemetry.Writer run of the same spec.
func TestTraceHTTPWhileSealing(t *testing.T) {
	spec := chaosSpec(8)
	spec.Workload.Measure = 4000
	want := bareTrace(t, spec)

	m, err := NewManagerOpts(Options{Workers: 1, QueueDepth: 4, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/api/v1/jobs/" + j.ID() + "/trace"
	fetch := func() ([]byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET trace: status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}

	const readers = 3
	bodies := make([][][]byte, readers)
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				// Sample the state before the read: a body fetched after
				// the job was already terminal is the last one needed.
				terminal := j.Status().State.Terminal()
				body, err := fetch()
				if err != nil {
					errs <- err
					return
				}
				bodies[r] = append(bodies[r], body)
				if terminal {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	final, _ := j.Trace()
	if !bytes.Equal(final, want) {
		t.Fatalf("served trace differs from a bare Writer run (%d vs %d bytes)", len(final), len(want))
	}
	partial := 0
	for r, bs := range bodies {
		for i, body := range bs {
			if !bytes.HasPrefix(final, body) {
				t.Fatalf("reader %d body %d (%d bytes) is not a prefix of the final trace", r, i, len(body))
			}
			if len(body) < len(final) {
				partial++
			}
		}
		if last := bs[len(bs)-1]; !bytes.Equal(last, final) {
			t.Fatalf("reader %d's post-terminal body is %d bytes, want the full %d", r, len(last), len(final))
		}
	}
	t.Logf("%d reads saw a partial trace", partial)
}

// TestHTTPCheckpointBody pins the checkpoint endpoint's body byte for
// byte to EncodeCheckpoint(Manager.Checkpoint(…)), with nothing appended,
// for a chaos-faulted 256×4 ring frozen mid-run.
//
// Both requests are issued together. The worker serves a waiting
// checkpoint request before it steps again, so the second is frozen at
// the tick of the first; the rare pair that straddles a tick is retried.
func TestHTTPCheckpointBody(t *testing.T) {
	spec := JobSpec{
		Name:   "ckpt-body",
		Config: core.Config{Nodes: 256, Buses: 4, Seed: 3},
		Workload: WorkloadSpec{
			Pattern: "neighbour", Rate: 0.05, PayloadLen: 16, Measure: 2_000_000_000, Seed: 3,
		},
		Faults: core.ChaosPlan(256, 4, core.ChaosOptions{
			Seed: 3, Horizon: 5000, SegmentRate: 0.3, INCRate: 0.15,
			MeanDown: 150, MeanUp: 300,
		}),
	}
	m, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Tick < 1000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tick := j.Status().Tick; tick < 1000 {
		t.Fatalf("job reached only tick %d", tick)
	}
	defer func() {
		j.Cancel()
		waitTerminal(t, j)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for attempt := 0; attempt < 5; attempt++ {
		var (
			wg     sync.WaitGroup
			resp   *http.Response
			body   []byte
			httpEr error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, httpEr = http.Post(srv.URL+"/api/v1/jobs/"+j.ID()+"/checkpoint", "application/json", nil)
			if httpEr == nil {
				body, httpEr = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
		}()
		ck, err := m.Checkpoint(ctx, j.ID())
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if httpEr != nil {
			t.Fatal(httpEr)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("checkpoint: %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("content type %q", ct)
		}
		if ck.ID != j.ID() || len(ck.Core) == 0 || len(ck.Spec.Faults.Events) == 0 {
			t.Fatalf("checkpoint looks wrong: id=%q core=%d bytes faults=%d", ck.ID, len(ck.Core), len(ck.Spec.Faults.Events))
		}
		want, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(body, want) {
			return
		}
		// Different bytes are only legitimate if the two were frozen at
		// different ticks.
		served, err := DecodeCheckpoint(body)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(served.Core, ck.Core) {
			t.Fatalf("checkpoint body (%d bytes) differs from EncodeCheckpoint(Manager.Checkpoint) (%d bytes) for one frozen state", len(body), len(want))
		}
		t.Logf("attempt %d: the two requests were frozen at different ticks; retrying", attempt)
	}
	t.Fatal("no attempt froze both requests at the same tick")
}
