package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rmb/internal/core"
	"rmb/internal/experiments"
	"rmb/internal/loadgen"
	"rmb/internal/obs"
	"rmb/internal/service"
	"rmb/internal/telemetry"
)

// ladder is the in-process half of the traced run: it times calls into
// each layer's public functions on the workload's own job specs, one
// rung per step the daemon takes between decoding a spec and encoding
// its result. Nothing here touches a daemon.
type ladder struct {
	newNetworkUs, resetUs        []float64
	newDriverUs, resultUs        []float64
	stepNs, ticks                float64 // Σ over jobs: Driver.Step loop time and ticks
	tracedStepNs                 float64 // the same loop with the JSONL writer attached
	traceKB, traceEvents         []float64
	appendEventNs, writerMBps    float64
	sendNs, sends                float64 // Σ over shapes
	stepOnlyNs, stepOnlyTicks    float64 // pattern-drain Step loop, no generator
	stepOnlyBusy                 float64
	ckptMarshalMs, ckptRestoreMs []float64
	ckptBytes                    float64
	observeNs, parseMs           float64
}

type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// timeRun drives one spec from a built network to its result and
// returns the Step-loop time and the driver, ready for Result.
func timeRun(n *core.Network, spec service.JobSpec) (time.Duration, *loadgen.Driver, time.Duration, error) {
	lcfg, err := loadgenConfig(spec)
	if err != nil {
		return 0, nil, 0, err
	}
	t := time.Now()
	d, err := loadgen.NewDriver(n, lcfg)
	newDriver := time.Since(t)
	if err != nil {
		return 0, nil, 0, err
	}
	t = time.Now()
	for {
		more, err := d.Step()
		if err != nil {
			return 0, nil, 0, err
		}
		if !more {
			break
		}
	}
	return time.Since(t), d, newDriver, nil
}

// runLadder climbs the rungs over the first p.ladderJobs jobs.
func runLadder(p *plan, metricsBody []byte) (*ladder, error) {
	l := &ladder{}
	jobs := p.jobs
	if len(jobs) > p.ladderJobs {
		jobs = jobs[:p.ladderJobs]
	}
	var events []telemetry.Event
	shapes := map[[2]int]service.JobSpec{}
	for i := range jobs {
		// The ladder starts where the daemon does: from the bytes.
		var spec service.JobSpec
		if err := json.Unmarshal(jobs[i].body, &spec); err != nil {
			return nil, err
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		shapes[[2]int{spec.Config.Nodes, spec.Config.Buses}] = spec

		t := time.Now()
		n, err := core.NewNetwork(spec.Config)
		if err != nil {
			return nil, err
		}
		l.newNetworkUs = append(l.newNetworkUs, us(time.Since(t)))
		stepDur, d, newDriver, err := timeRun(n, spec)
		if err != nil {
			return nil, err
		}
		l.newDriverUs = append(l.newDriverUs, us(newDriver))
		l.stepNs += float64(stepDur)
		l.ticks += float64(n.Now())
		t = time.Now()
		d.Result()
		l.resultUs = append(l.resultUs, us(time.Since(t)))

		// Reset is timed on the finished (dirty) network, which is what
		// the daemon's pool re-arms; the traced variant then reuses it.
		out := &countingDiscard{}
		w := telemetry.NewWriter(out)
		collect := i == 0
		cfg := spec.Config
		cfg.Recorder = &telemetry.Adapter{Observe: func(e telemetry.Event) {
			if collect {
				events = append(events, e)
			}
			w.Observe(e)
		}}
		t = time.Now()
		if err := n.Reset(cfg); err != nil {
			return nil, err
		}
		l.resetUs = append(l.resetUs, us(time.Since(t)))
		tracedDur, _, _, err := timeRun(n, spec)
		if err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		l.tracedStepNs += float64(tracedDur)
		l.traceKB = append(l.traceKB, float64(out.n)/1024)
		l.traceEvents = append(l.traceEvents, float64(w.Count()))
		n.Close()
	}
	l.timeTelemetry(events)
	for _, spec := range shapes {
		if err := l.timeCore(spec); err != nil {
			return nil, err
		}
	}
	if len(jobs) > 0 {
		if err := l.timeCheckpoint(jobs[0].spec, max(p.ckptAtTick, 1000)); err != nil {
			return nil, err
		}
	}
	l.timeObs(metricsBody)
	return l, nil
}

// timeTelemetry times the event encoder and the chunked writer on the
// events of one real run.
func (l *ladder) timeTelemetry(events []telemetry.Event) {
	if len(events) == 0 {
		return
	}
	const reps = 5
	buf := make([]byte, 0, 1024)
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, e := range events {
			buf = telemetry.AppendEvent(buf[:0], e)
		}
	}
	l.appendEventNs = float64(time.Since(t)) / float64(reps*len(events))
	out := &countingDiscard{}
	t = time.Now()
	for r := 0; r < reps; r++ {
		w := telemetry.NewWriter(out)
		for _, e := range events {
			w.Observe(e)
		}
		_ = w.Close() // the sink cannot fail
	}
	l.writerMBps = float64(out.n) / (1 << 20) / time.Since(t).Seconds()
}

// timeCore times Send and a generator-free Step loop at one shape: every
// node sends one message a quarter of the ring away, then the ring is
// stepped for two ticks per node (or until it drains). That load
// saturates the ring, so the loop times a busy kernel. ns per
// busy-segment tick is the ROADMAP's ns/tick/active-VB.
func (l *ladder) timeCore(spec service.JobSpec) error {
	cfg := spec.Config
	payload := make([]uint64, spec.Workload.PayloadLen)
	hop := max(cfg.Nodes/4, 1)
	// Small rings repeat on fresh networks until a few thousand sends
	// have been timed; one pass over 16 nodes would time the cache misses.
	for reps := max(4096/cfg.Nodes, 1); reps > 0; reps-- {
		n, err := core.NewNetwork(cfg)
		if err != nil {
			return err
		}
		t := time.Now()
		for i := 0; i < cfg.Nodes; i++ {
			if _, err := n.Send(core.NodeID(i), core.NodeID((i+hop)%cfg.Nodes), payload); err != nil {
				n.Close()
				return err
			}
		}
		l.sendNs += float64(time.Since(t))
		l.sends += float64(cfg.Nodes)
		limit := 2 * cfg.Nodes
		t = time.Now()
		for i := 0; i < limit && !n.Idle(); i++ {
			n.Step()
		}
		l.stepOnlyNs += float64(time.Since(t))
		st := n.Stats()
		l.stepOnlyTicks += float64(st.Ticks)
		l.stepOnlyBusy += float64(st.BusySegmentTicks)
		n.Close()
	}
	return nil
}

// timeCheckpoint freezes and restores the spec's ring at atTick (or at
// the end of the run if it is shorter).
func (l *ladder) timeCheckpoint(spec service.JobSpec, atTick int64) error {
	n, err := core.NewNetwork(spec.Config)
	if err != nil {
		return err
	}
	defer n.Close()
	lcfg, err := loadgenConfig(spec)
	if err != nil {
		return err
	}
	d, err := loadgen.NewDriver(n, lcfg)
	if err != nil {
		return err
	}
	for int64(n.Now()) < atTick {
		more, err := d.Step()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	for r := 0; r < 5; r++ {
		t := time.Now()
		data, err := n.MarshalCheckpoint()
		if err != nil {
			return err
		}
		l.ckptMarshalMs = append(l.ckptMarshalMs, ms(time.Since(t)))
		l.ckptBytes = float64(len(data))
		t = time.Now()
		back, err := core.UnmarshalCheckpoint(data)
		if err != nil {
			return err
		}
		l.ckptRestoreMs = append(l.ckptRestoreMs, ms(time.Since(t)))
		back.Close()
	}
	return nil
}

func (l *ladder) timeObs(metricsBody []byte) {
	var h obs.Histogram
	const n = 1 << 20
	t := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	l.observeNs = float64(time.Since(t)) / n
	if len(metricsBody) == 0 {
		return
	}
	const reps = 20
	t = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := obs.ParseExposition(bytes.NewReader(metricsBody)); err != nil {
			return
		}
	}
	l.parseMs = ms(time.Since(t)) / reps
}

// envelopeLadder times the service's checkpoint envelope on bodies the
// daemon returned.
func envelopeLadder(bodies [][]byte) (encodeMs, decodeMs []float64, err error) {
	for _, b := range bodies {
		t := time.Now()
		ck, err := service.DecodeCheckpoint(b)
		if err != nil {
			return nil, nil, err
		}
		decodeMs = append(decodeMs, ms(time.Since(t)))
		t = time.Now()
		if _, err := service.EncodeCheckpoint(ck); err != nil {
			return nil, nil, err
		}
		encodeMs = append(encodeMs, ms(time.Since(t)))
	}
	return encodeMs, decodeMs, nil
}

// experimentLadder runs every experiment in process, as rmbbench -all
// does, and reports where the time goes: the median over the passes per
// experiment. The three named experiments are most of a run.
func experimentLadder(passes int) (byID map[string]float64, total float64, err error) {
	times := map[string][]float64{}
	for pass := 0; pass < passes; pass++ {
		for _, e := range experiments.All() {
			t := time.Now()
			if _, err := e.Run(); err != nil {
				return nil, 0, fmt.Errorf("bench: experiment %s: %w", e.ID, err)
			}
			times[e.ID] = append(times[e.ID], ms(time.Since(t)))
		}
	}
	byID = map[string]float64{}
	for id, v := range times {
		d := median(v)
		total += d
		switch id {
		case "TH1", "GR1", "MS1":
			byID[id] = d
		default:
			byID["rest"] += d
		}
	}
	return byID, total, nil
}
