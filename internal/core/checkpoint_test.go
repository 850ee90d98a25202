package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rmb/internal/flit"
	"rmb/internal/sim"
)

// driveBernoulliTicks advances the network from tick `from` to tick `to`,
// submitting a Bernoulli per-node workload drawn from wrng before each
// Step. All randomness comes from wrng, so a run that consumes [0,N) from
// one RNG and a restored run that continues [N,2N) from the same RNG
// together replay exactly the workload an uninterrupted [0,2N) run sees.
func driveBernoulliTicks(t *testing.T, n *Network, wrng *sim.RNG, from, to sim.Tick) {
	t.Helper()
	nodes := n.cfg.Nodes
	for now := from; now < to; now++ {
		for node := 0; node < nodes; node++ {
			if wrng.Float64() >= 0.08 {
				continue
			}
			dst := (node + 1 + wrng.Intn(nodes-1)) % nodes
			payload := make([]uint64, wrng.Intn(5))
			for i := range payload {
				payload[i] = wrng.Uint64()
			}
			if nodes >= 6 && wrng.Float64() < 0.15 {
				d2 := (node + 2 + wrng.Intn(nodes-3)) % nodes
				if d2 != node && d2 != dst {
					if _, err := n.SendMulticast(NodeID(node), []NodeID{NodeID(dst), NodeID(d2)}, payload); err != nil {
						t.Fatalf("SendMulticast: %v", err)
					}
					continue
				}
			}
			if _, err := n.Send(NodeID(node), NodeID(dst), payload); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		n.Step()
	}
}

// checkpointZooConfig builds the seed-varied configuration the checkpoint
// differential sweeps: both sync modes, both schedulers, varying
// compaction periods, Dack windows, the disabled head-timeout valve, and
// a chaos fault schedule whose horizon extends well past both the
// checkpoint tick and the end of the run, so fault timers are pending in
// every serialized state.
func checkpointZooConfig(seed uint64) Config {
	cfg := Config{
		Nodes:            12,
		Buses:            3,
		Mode:             SyncMode(seed % 2),
		CompactionPeriod: 1 + int(seed%3),
		DackWindow:       int(seed % 4),
		Seed:             seed,
		Faults: ChaosPlan(12, 3, ChaosOptions{
			Seed:        seed*77 + 3,
			Horizon:     5000,
			SegmentRate: 0.25,
			INCRate:     0.15,
			MeanDown:    120,
			MeanUp:      250,
		}),
	}
	cfg.Scheduler = SchedulerEventDriven
	if seed%3 == 1 {
		cfg.Scheduler = SchedulerNaive
	}
	if seed%5 == 0 {
		cfg.HeadTimeout = HeadTimeoutDisabled
	}
	return cfg
}

// TestCheckpointDifferential is the tentpole correctness proof for
// checkpoint/resume: for every seed in the zoo, running 2N ticks straight
// must be indistinguishable from running N ticks, serializing, restoring
// into a fresh network, and running N more — indistinguishable in the
// recorded event stream, stats, message records, delivery log, and (the
// strongest form) in the final checkpoint bytes themselves, which cover
// every serialized field at once. Chaos faults are active throughout, so
// pending fault timers, faulty segments and fault-phase buses all cross
// the serialization boundary.
func TestCheckpointDifferential(t *testing.T) {
	const half = sim.Tick(500)
	for seed := uint64(0); seed < 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := checkpointZooConfig(seed)

			// Run A: uninterrupted oracle.
			nA, err := NewNetwork(cfg)
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			recA := &captureRecorder{}
			nA.SetRecorder(recA)
			wrngA := sim.NewRNG(seed*0x9e3779b9 + 7)
			driveBernoulliTicks(t, nA, wrngA, 0, 2*half)
			finalA, err := nA.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("oracle final checkpoint: %v", err)
			}
			nA.Close()

			// Run B: checkpoint at the halfway tick, restore, continue
			// with the same workload RNG.
			nB, err := NewNetwork(cfg)
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			recB1 := &captureRecorder{}
			nB.SetRecorder(recB1)
			wrngB := sim.NewRNG(seed*0x9e3779b9 + 7)
			driveBernoulliTicks(t, nB, wrngB, 0, half)
			mid, err := nB.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
			nB.Close()

			nB2, err := UnmarshalCheckpoint(mid)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if nB2.Now() != half {
				t.Fatalf("restored clock %v, want %v", nB2.Now(), half)
			}
			// Round-trip identity: serializing the just-restored network
			// must reproduce the checkpoint byte for byte.
			again, err := nB2.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("re-checkpoint after restore: %v", err)
			}
			if !bytes.Equal(mid, again) {
				t.Fatalf("checkpoint round-trip not byte-identical:\n first:  %d bytes\n second: %d bytes\n%s", len(mid), len(again), firstDiff(mid, again))
			}
			recB2 := &captureRecorder{}
			nB2.SetRecorder(recB2)
			driveBernoulliTicks(t, nB2, wrngB, half, 2*half)
			finalB, err := nB2.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("resumed final checkpoint: %v", err)
			}
			nB2.Close()

			gotEvents := append(append([]string{}, recB1.events...), recB2.events...)
			if !reflect.DeepEqual(gotEvents, recA.events) {
				for i := range gotEvents {
					if i >= len(recA.events) || gotEvents[i] != recA.events[i] {
						t.Fatalf("event %d diverged after resume:\n got:    %s\n oracle: %s", i, gotEvents[i], eventOr(recA.events, i))
					}
				}
				t.Fatalf("event stream diverged (lengths %d vs %d)", len(gotEvents), len(recA.events))
			}
			if !bytes.Equal(finalA, finalB) {
				t.Fatalf("final state diverged after resume:\n%s", firstDiff(finalA, finalB))
			}
		})
	}
}

// firstDiff renders a short hex window around the first byte where two
// checkpoints differ, for readable failures.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	window := func(s []byte) []byte {
		return s[max(i-16, 0):min(i+16, len(s))]
	}
	return fmt.Sprintf("first difference at byte %d:\n a: …% x…\n b: …% x…", i, window(a), window(b))
}

// TestCheckpointObserverIndependence proves serializing is free of
// observer effects: a run that checkpoints every 100 ticks draws exactly
// the same RNG stream — and therefore produces the same trace — as one
// that never checkpoints.
func TestCheckpointObserverIndependence(t *testing.T) {
	cfg := checkpointZooConfig(4)
	run := func(checkpointing bool) ([]string, uint64) {
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		rec := &captureRecorder{}
		n.SetRecorder(rec)
		wrng := sim.NewRNG(99)
		for chunk := sim.Tick(0); chunk < 10; chunk++ {
			driveBernoulliTicks(t, n, wrng, chunk*100, (chunk+1)*100)
			if checkpointing {
				if _, err := n.MarshalCheckpoint(); err != nil {
					t.Fatalf("checkpoint at %v: %v", n.Now(), err)
				}
			}
		}
		state := n.rng.State()
		n.Close()
		return rec.events, state
	}
	plainEvents, plainRNG := run(false)
	ckptEvents, ckptRNG := run(true)
	if plainRNG != ckptRNG {
		t.Fatalf("checkpointing perturbed the RNG stream: %#x vs %#x", ckptRNG, plainRNG)
	}
	if !reflect.DeepEqual(plainEvents, ckptEvents) {
		t.Fatal("checkpointing perturbed the event trace")
	}
}

// TestCheckpointCorruption exercises the reader's rejection paths: every
// kind of damage must yield an error, never a network built from garbage
// (and never a panic). The version 3 cases tamper with the live message
// window: its bounds, its bottom record, and the messages that queued
// requests and buses point into it.
func TestCheckpointCorruption(t *testing.T) {
	data := checkpointAt(t, checkpointZooConfig(1), 7, 300)
	if st := decodeForTest(t, data); len(st.Records) < 2 || len(st.Pending)+len(st.Retries) == 0 || st.RecBase == 1 {
		t.Fatalf("zoo checkpoint lacks a moved window with queued requests: base %d, %d records, %d queued, %d retrying",
			st.RecBase, len(st.Records), len(st.Pending), len(st.Retries))
	}

	// The body opens with the length-prefixed config section; the clock is
	// the varint right after it.
	cfgLen, k := binary.Varint(data[ckptHeaderLen:])
	clockAt := ckptHeaderLen + k + int(cfgLen)
	_, clockLen := binary.Varint(data[clockAt:])

	oversized := append([]byte(nil), data[:ckptHeaderLen]...)
	oversized = binary.AppendVarint(oversized, 1<<40)
	oversized = resum(append(oversized, data[ckptHeaderLen+k:]...))

	// A non-minimal encoding of the same clock value: one more byte that
	// adds nothing.
	padded := append([]byte(nil), data[:clockAt+clockLen]...)
	padded[len(padded)-1] |= 0x80
	padded = resum(append(append(padded, 0), data[clockAt+clockLen:]...))

	cases := []struct {
		name        string
		data        []byte
		want        string
		unsupported bool
	}{
		{"truncated", data[:len(data)/2], "checksum", false},
		{"empty", nil, "truncated header", false},
		{"not json", []byte("once upon a time"), "bad magic", false},
		{"bit flip", withByte(data, len(data)/2, data[len(data)/2]^0x10), "checksum", false},
		{"bad magic", withByte(data, 0, 'R'), "bad magic", false},
		{"future version", withByte(data, len(checkpointMagic), CheckpointVersion+1), fmt.Sprintf("version %d", CheckpointVersion+1), true},
		{"v1 json", []byte(`{"magic":"rmb-checkpoint","version":1,"sum":1,"state":{}}`), "version 1", true},
		{"stale checksum", withByte(data, ckptHeaderLen-1, data[ckptHeaderLen-1]+1), "checksum", false},
		{"oversized length prefix", oversized, "exceeds", false},
		{"non-minimal varint", padded, "non-minimal", false},
		{"trailing bytes", resum(append(append([]byte(nil), data...), 0)), "trailing", false},
		{"record count mismatch", reframe(t, data, func(st *ckptState) { st.NextMsg = 1 }), "records", false},
		{"wrong ring size", reframe(t, data, func(st *ckptState) { st.Cfg.Nodes = 24 }), "INC entries", false},
		{"clock rewound", reframe(t, data, func(st *ckptState) { st.Now = -5 }), "negative clock", false},
		{"config not effective", reframe(t, data, func(st *ckptState) { st.Cfg.RetryBase = 0 }), "effective form", false},
		{"faults out of order", reframe(t, data, func(st *ckptState) {
			if len(st.Faults) < 2 {
				t.Fatal("zoo checkpoint has fewer than two pending faults")
			}
			st.Faults[0].At = st.Faults[1].At + 1
		}), "firing order", false},
		{"v2 checkpoint", readCorpusSeed(t, filepath.Join("testdata", "fuzz", "FuzzUnmarshalCheckpoint", "v2-lockstep-chaos")), "version 2", true},
		{"window base past next ID", reframe(t, data, func(st *ckptState) {
			st.RecBase, st.Records, st.Payloads = st.NextMsg+2, nil, nil
		}), "message window", false},
		{"window base zero", reframe(t, data, func(st *ckptState) {
			// A window of the right length that starts at the invalid ID 0.
			st.RecBase = 0
			st.Records = make([]MsgRecord, st.NextMsg+1)
			st.Payloads = make([][]uint64, st.NextMsg+1)
			for i := range st.Records {
				st.Records[i] = MsgRecord{ID: flit.MessageID(i), Src: 0, Dst: 1, Distance: 1, Done: true}
			}
		}), "message window", false},
		{"finished window base", reframe(t, data, func(st *ckptState) {
			st.Records[0].Done, st.Payloads[0] = true, nil
		}), "live window", false},
		{"request for retired message", reframe(t, data, func(st *ckptState) {
			if len(st.Pending) > 0 {
				st.Pending[0].Msg = st.RecBase - 1
			} else {
				st.Retries[0].Msg = st.RecBase - 1
			}
		}), "live window", false},
		{"bus message beyond next ID", reframe(t, data, func(st *ckptState) {
			if len(st.Active) == 0 {
				t.Fatal("zoo checkpoint has no live buses")
			}
			st.Active[0].Msg = st.NextMsg + 1
		}), "unknown message", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalCheckpoint(tc.data)
			if err == nil {
				t.Fatalf("corrupt checkpoint (%s) restored without error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if errors.Is(err, ErrUnsupportedVersion) != tc.unsupported {
				t.Fatalf("errors.Is(%q, ErrUnsupportedVersion) = %v, want %v", err, !tc.unsupported, tc.unsupported)
			}
		})
	}

	// Cutting the body anywhere — inside a section or on a boundary —
	// must surface as truncation even with a checksum that matches the
	// shortened body: every length prefix is checked against the bytes
	// that remain.
	t.Run("truncated at every offset", func(t *testing.T) {
		for cut := ckptHeaderLen; cut < len(data); cut++ {
			_, err := UnmarshalCheckpoint(resum(data[:cut]))
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("body cut at byte %d of %d: got %v, want a truncation error", cut, len(data), err)
			}
		}
	})
}

// decodeForTest decodes a checkpoint's state without restoring it.
func decodeForTest(t *testing.T, data []byte) *ckptState {
	t.Helper()
	st, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// readCorpusSeed reads one committed fuzz seed's bytes.
func readCorpusSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the corpus)", err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: not a []byte corpus entry: %v", path, err)
	}
	return []byte(data)
}

// checkpointAt runs a zoo workload for ticks ticks and checkpoints it.
func checkpointAt(t *testing.T, cfg Config, workSeed uint64, ticks sim.Tick) []byte {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer n.Close()
	driveBernoulliTicks(t, n, sim.NewRNG(workSeed), 0, ticks)
	data, err := n.MarshalCheckpoint()
	if err != nil {
		t.Fatalf("MarshalCheckpoint: %v", err)
	}
	return data
}

// resum recomputes the header checksum of a (possibly tampered)
// checkpoint, so the damage reaches the body parser.
func resum(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= ckptHeaderLen && string(out[:len(checkpointMagic)]) == checkpointMagic {
		binary.LittleEndian.PutUint64(out[ckptHeaderLen-8:], fnvSum(out[ckptHeaderLen:]))
	}
	return out
}

// reframe decodes the checkpoint's state, lets f tamper with it, and
// re-encodes it with a valid checksum — for reaching the semantic
// validators behind the frame and codec checks.
func reframe(t *testing.T, data []byte, f func(st *ckptState)) []byte {
	t.Helper()
	body, err := checkpointBody(data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeCheckpointState(body)
	if err != nil {
		t.Fatal(err)
	}
	f(st)
	c := ckptCodec{buf: append([]byte(nil), data[:ckptHeaderLen]...)}
	c.state(st)
	if c.err != nil {
		t.Fatalf("re-encoding state: %v", c.err)
	}
	return resum(c.buf)
}

func withByte(data []byte, i int, b byte) []byte {
	out := append([]byte(nil), data...)
	out[i] = b
	return out
}

// TestCheckpointMidPhaseRefused pins the tick-boundary precondition: a
// checkpoint is only meaningful between Steps, and WriteCheckpoint
// refuses state captured anywhere else. (Dead buses awaiting the sweep
// are the observable signature of mid-phase state; constructing one
// requires reaching into the internals, which this package test may.)
func TestCheckpointMidPhaseRefused(t *testing.T) {
	cfg := Config{Nodes: 4, Buses: 2, Seed: 1}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	n.deadVBs = 1
	if _, err := n.MarshalCheckpoint(); err == nil || !strings.Contains(err.Error(), "mid-phase") {
		t.Fatalf("mid-phase checkpoint not refused: %v", err)
	}
	n.deadVBs = 0
	if _, err := n.MarshalCheckpoint(); err != nil {
		t.Fatalf("boundary checkpoint refused: %v", err)
	}
	n.Close()
}

// TestCheckpointWriterReader round-trips through the io.Writer/io.Reader
// wrappers, which carry exactly MarshalCheckpoint's bytes: no terminator,
// since the reader refuses trailing bytes.
func TestCheckpointWriterReader(t *testing.T) {
	cfg := checkpointZooConfig(2)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	wrng := sim.NewRNG(11)
	driveBernoulliTicks(t, n, wrng, 0, 200)
	var buf bytes.Buffer
	if err := n.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	want, err := n.MarshalCheckpoint()
	if err != nil {
		t.Fatalf("MarshalCheckpoint: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteCheckpoint wrote %d bytes, not MarshalCheckpoint's %d", buf.Len(), len(want))
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if restored.Now() != n.Now() {
		t.Fatalf("restored clock %v, want %v", restored.Now(), n.Now())
	}
	if restored.Stats() != n.Stats() {
		t.Fatalf("restored stats diverged:\n got:  %+v\n want: %+v", restored.Stats(), n.Stats())
	}
	n.Close()
	restored.Close()
}

// FuzzUnmarshalCheckpoint feeds arbitrary bytes to the reader, both as
// given and with the checksum recomputed so that mutations reach the
// body parser. The reader must never panic, and any input it accepts must
// re-marshal to exactly the same bytes. The committed seed corpus holds
// real checkpoints (see TestCheckpointFuzzCorpus).
func FuzzUnmarshalCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resum(data)} {
			n, err := UnmarshalCheckpoint(in)
			if err != nil {
				continue
			}
			out, err := n.MarshalCheckpoint()
			n.Close()
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-marshal: %v", err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("accepted %d bytes but re-marshaled %d:\n%s", len(in), len(out), firstDiff(in, out))
			}
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus")

// TestCheckpointFuzzCorpus keeps FuzzUnmarshalCheckpoint's committed seed
// corpus made of real checkpoints in the current format: every generated
// file must restore. Run with -update to regenerate them after a format
// change. The v2- and v3- seeds are real checkpoints of older formats,
// kept as inputs the reader must refuse as unsupported.
func TestCheckpointFuzzCorpus(t *testing.T) {
	seeds := map[string]func() []byte{
		// Lockstep, naive scheduler, chaos faults pending and applied.
		"lockstep-chaos": func() []byte { return checkpointAt(t, checkpointZooConfig(4), 5, 120) },
		// Async mode (dirty set, jittered FSMs), naive scheduler, chaos.
		"async-chaos": func() []byte { return checkpointAt(t, checkpointZooConfig(1), 7, 120) },
		// A fault-free ring with unicast and multicast traffic.
		"fault-free": func() []byte { return checkpointAt(t, Config{Nodes: 8, Buses: 2, Seed: 5}, 3, 100) },
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalCheckpoint")
	for name, gen := range seeds {
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", gen())), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		n, err := UnmarshalCheckpoint(readCorpusSeed(t, path))
		if err != nil {
			t.Fatalf("%s no longer restores (run with -update after a format change): %v", path, err)
		}
		n.Close()
	}
	for _, v := range []string{"v2", "v3"} {
		old, err := filepath.Glob(filepath.Join(dir, v+"-*"))
		if err != nil || len(old) == 0 {
			t.Fatalf("no %s seed in %s: %v", v, dir, err)
		}
		for _, path := range old {
			if _, err := UnmarshalCheckpoint(readCorpusSeed(t, path)); !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("%s: got %v, want ErrUnsupportedVersion", path, err)
			}
		}
	}
}
