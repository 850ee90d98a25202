package core

import (
	"fmt"

	"rmb/internal/flit"
	"rmb/internal/sim"
)

// Network is a cycle-stepped simulator of one RMB ring: N nodes, k
// parallel bus segments per hop, the routing protocol of Section 2.2-2.3
// and the compaction protocol of Sections 2.4-2.5.
//
// A Network is not safe for concurrent use; drive it from one goroutine.
type Network struct {
	cfg   Config
	clock *sim.Clock
	rng   *sim.RNG

	// occ[h][l] is the virtual bus occupying segment l of hop h (the hop
	// from node h to node h+1 mod N); zero when free. The rows share one
	// backing array (occFlat) so construction is two allocations.
	occ     [][]VBID
	occFlat []VBID
	// active holds every live virtual bus in ascending ID order; lookupVB
	// binary-searches it (IDs are unbounded, so a dense index won't do and
	// a map costs hashing on the hot occupant-lookup paths).
	active []*VirtualBus

	incs []incState

	// pending[n] queues requests at node n awaiting insertion.
	pending [][]*request
	// retries schedules backed-off reinsertions; its earliest deadline is
	// the fast-forward horizon when everything else is drained.
	retries *sim.EventQueue
	// faults schedules FaultPlan transitions; they fire at the very start
	// of their tick's Step so the whole tick sees post-fault state. Its
	// earliest deadline bounds FastForward alongside the retry wheel.
	faults *sim.EventQueue

	// segFaulty[h][l] marks segment l of hop h failed; incFaulty[h] marks
	// the whole INC failed (all its segments unusable, sends and receives
	// refused). The rows share one backing array like occ/occFlat.
	segFaulty     [][]bool
	segFaultyFlat []bool
	incFaulty     []bool
	// faultySegments counts segments currently disabled by faults
	// (segment faults plus all segments under failed INCs, not double
	// counted), maintained incrementally by applyFault.
	faultySegments int

	nextVB  VBID
	nextMsg flit.MessageID

	stats Stats
	// The live message window. IDs are dense from 1 and monotonic; the
	// window spans [recBase, nextMsg], where recBase is the oldest
	// unfinished message (nextMsg+1 when none is), and the network holds
	// records and payloads for its unfinished messages only. A finished
	// message is handed to the delivery hooks and forgotten, so what the
	// network keeps is bounded by the live ring, not the length of the
	// run. recSlot maps window IDs to pool entries (see window.go); pool
	// and pays hold the unfinished records and payloads, recycled through
	// poolFree; payFree recycles payload buffers by size class.
	recBase   flit.MessageID
	recHead   int
	recSlot   []int32
	pool      []MsgRecord
	pays      [][]uint64
	poolFree  []int32
	payFree   [maxPayClass + 1][][]uint64
	onDeliver []DeliveryHook

	rec Recorder
	// recOn is false exactly while rec is the no-op recorder; the
	// per-event hot paths (VB lifecycle events, compaction move records)
	// check it before assembling recorder payloads, so un-traced runs pay
	// neither the interface dispatch nor the Figure 7 sequence derivation.
	recOn bool

	// globalCycle is the Lockstep-mode odd/even cycle counter.
	globalCycle int64

	// insertRotate rotates the node scanned first for insertion so no
	// node gets a structural priority.
	insertRotate int

	// naive disables every event-driven skip (Config.Scheduler ==
	// SchedulerNaive), keeping the full-rescan reference semantics. The
	// activity bookkeeping below is maintained in both modes — the naive
	// path simply never consults it, which lets the auditor and the
	// differential tests use the naive run as an oracle for the counters.
	naive bool
	// busySegments counts occupied segments, maintained incrementally by
	// claimSeg/releaseSeg so sampleOccupancy is O(1) in event mode.
	busySegments int
	// pendingCount counts queued requests across all nodes so the
	// insertion scan can be skipped when nothing is waiting.
	pendingCount int
	// compactAwake counts active buses not yet compaction-quiescent; at
	// zero the whole lockstep compaction scan is skipped.
	compactAwake int
	// deadVBs counts terminal buses awaiting sweepRemoved.
	deadVBs int
	// fwdActive / bwdActive count buses in forward-phase states
	// (extending, transferring, final-propagating) and backward-phase
	// states (Hack/Fack/Nack returning); a phase whose population is zero
	// is skipped whole in event mode.
	fwdActive, bwdActive int
	// asyncDirty[i] marks INC i for re-evaluation in Async mode: set when
	// a neighbour's visible flags or the INC's own state changed since its
	// last evaluation (allocated only in Async mode).
	asyncDirty []bool

	// planBuf is a reusable per-tick buffer that keeps the compaction
	// apply loop allocation-free.
	planBuf []plannedMove

	// Structure-of-arrays mirrors of the hot per-tick state; see soa.go.
	// The pointer structs above stay authoritative — these are derived
	// views maintained at their sources' write sites so the event and
	// sharded schedulers can run phase kernels as word-parallel scans.
	occBits      []bitset      // occBits[l] bit h: segment (h,l) occupied
	faultyBits   []bitset      // faultyBits[l] bit h: segment (h,l) fault-disabled
	busyBits     []bitset      // busyBits[l] = occBits[l] | faultyBits[l] (segUsable's single load)
	busyFlat     []uint64      // all busy levels contiguously: level l starts at word l*soaNW
	soaNW        int           // words per level row in busyFlat (bitWords(Nodes))
	occVB        []*VirtualBus // occVB[h*k+l]: occupying bus, nil when free
	extBits      bitset        // slot bits: extending buses
	bwdBits      bitset        // slot bits: backward-signal buses
	awakeBits    bitset        // slot bits: compaction-awake buses
	xferScan     bitset        // slot bits: wheel-woken transfers (forward phase only)
	pendingBits  bitset        // node bits: non-empty insertion queues
	pendingSlots []*request    // per-node inline queue slot (see initSoA)
	incStatus    []uint8       // packed per-INC status bytes (soa.go consts)
	// xferActive counts buses in VBTransferring/VBFinalPropagating. With
	// the wake wheel those buses leave the per-tick scans, so the forward
	// phase's progress flag can no longer be derived from visiting them;
	// this counter preserves the naive scheduler's report exactly.
	xferActive int
	// wheel schedules dormant-transfer wakes (final-flit launch and
	// arrival); a manual min-heap so pushes and pops stay allocation-free.
	wheel []wakeEntry

	// reqFree / reqArena recycle request structs (unicast only — a
	// multicast request's dsts slice outlives insertion by aliasing the
	// bus's Dsts) and payloadArena carves payload buffers the free lists
	// cannot supply, so Send is allocation-free on the steady path.
	reqFree      []*request
	reqArena     []request
	payloadArena wordArena
	// sh is the sharded scheduler's runtime (arc-worker pool, per-arc
	// scratch); nil unless Config.Scheduler == SchedulerSharded resolved
	// to 2+ arcs (see initShard in sharded.go). When nil, Step takes the
	// sequential phase path.
	sh *shardState

	// invariantChecks counts checkTickInvariants executions; always zero
	// unless the build carries the `invariants` tag (see invariants_on.go
	// and internal/invariant). Per-Network, so parallel differential runs
	// under -race never contend on a global.
	invariantChecks int64

	// vbFree recycles torn-down VirtualBus structs (and their Levels /
	// claimedTaps / sendTicks backing arrays) for later insertions. A
	// recycled bus is only handed out by insert, which overwrites every
	// field, so stale pointers held across a teardown never see a live bus.
	// vbArena chunk-allocates fresh structs when the freelist is empty, and
	// intArena / tickArena carve the Levels and sendTicks backing arrays,
	// cutting the malloc count per insertion from three to amortized ~zero.
	vbFree    []*VirtualBus
	vbArena   []VirtualBus
	intArena  []int
	tickArena []sim.Tick
}

// incState holds per-INC bookkeeping.
type incState struct {
	fsm        CycleFSM
	idDelay    int
	sendActive int
	recvActive int
}

// request is a message waiting (or waiting again) for insertion.
type request struct {
	msg      flit.Message
	enqueued sim.Tick
	attempts int
	// dsts lists every destination in clockwise order (one entry for
	// unicast); the last entry is the circuit's final destination.
	dsts []NodeID
	// dstBuf inlines the unicast destination list so Send and retry
	// never allocate one; dsts aliases dstBuf[:1] for unicast.
	dstBuf [1]NodeID
}

// NewNetwork builds a network from cfg, applying documented defaults.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:           cfg,
		clock:         sim.NewClock(),
		rng:           sim.NewRNG(cfg.Seed ^ 0x524d42), // "RMB"
		occ:           make([][]VBID, cfg.Nodes),
		occFlat:       make([]VBID, cfg.Nodes*cfg.Buses),
		incs:          make([]incState, cfg.Nodes),
		pending:       make([][]*request, cfg.Nodes),
		retries:       sim.NewEventQueue(),
		faults:        sim.NewEventQueue(),
		segFaulty:     make([][]bool, cfg.Nodes),
		segFaultyFlat: make([]bool, cfg.Nodes*cfg.Buses),
		incFaulty:     make([]bool, cfg.Nodes),
		rec:           nopRecorder{},
		// Message-scale slices start with one ring's worth of headroom:
		// workloads submit at least O(Nodes) messages, and paying the
		// append-doubling memmoves per network shows up in every benchmark
		// that constructs one per iteration.
		recBase: 1,
		active:  make([]*VirtualBus, 0, cfg.Nodes),
		wheel:   make([]wakeEntry, 0, cfg.Nodes),
		vbFree:  make([]*VirtualBus, 0, cfg.Nodes),
		reqFree: make([]*request, 0, cfg.Nodes),
		planBuf: make([]plannedMove, 0, cfg.Nodes),
	}
	n.growWindow(cfg.Nodes)
	n.naive = cfg.Scheduler == SchedulerNaive
	if cfg.Scheduler == SchedulerSharded {
		n.initShard()
	}
	if cfg.Mode == Async {
		n.asyncDirty = make([]bool, cfg.Nodes)
	}
	if cfg.Recorder != nil {
		n.rec = cfg.Recorder
		n.recOn = true
	}
	for h := range n.occ {
		n.occ[h] = n.occFlat[h*cfg.Buses : (h+1)*cfg.Buses : (h+1)*cfg.Buses]
		n.segFaulty[h] = n.segFaultyFlat[h*cfg.Buses : (h+1)*cfg.Buses : (h+1)*cfg.Buses]
	}
	n.initSoA()
	// idDelay jitters the async CycleFSM countdowns. Lockstep networks
	// never read it, but the draws must happen unconditionally anyway:
	// every retry backoff and head-timeout randomization shares this RNG,
	// so skipping N construction draws would shift the whole stream and
	// silently change every fixed-seed trajectory (goldens, EXPERIMENTS
	// numbers) while the scheduler differentials — which share the shifted
	// stream — kept passing.
	for i := range n.incs {
		n.incs[i].idDelay = 1 + n.rng.Intn(cfg.JitterMax)
	}
	if len(cfg.Faults.Events) > 0 {
		if err := n.InjectFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Config returns the effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Now reports the current simulation tick.
func (n *Network) Now() sim.Tick { return n.clock.Now() }

// SetRecorder installs a trace recorder (nil restores the no-op).
func (n *Network) SetRecorder(r Recorder) {
	if r == nil {
		n.rec = nopRecorder{}
		n.recOn = false
		return
	}
	n.rec = r
	n.recOn = true
}

// recVBEvent forwards a virtual-bus lifecycle event to the recorder. It
// exists so the hot routing paths pay a single predictable branch — not
// an interface dispatch — while no recorder is installed.
func (n *Network) recVBEvent(now sim.Tick, vb *VirtualBus, kind string) {
	if n.recOn {
		n.rec.VBEvent(now, vb, kind)
	}
}

// Distance reports the clockwise hop count from src to dst.
func (n *Network) Distance(src, dst NodeID) int {
	d := (int(dst) - int(src)) % n.cfg.Nodes
	if d < 0 {
		d += n.cfg.Nodes
	}
	return d
}

// Send enqueues a message from src to dst carrying payload (one data flit
// per word; empty payloads are legal header-only messages). It returns
// the assigned message ID.
func (n *Network) Send(src, dst NodeID, payload []uint64) (flit.MessageID, error) {
	if int(src) < 0 || int(src) >= n.cfg.Nodes {
		return 0, fmt.Errorf("core: source node %d outside [0,%d)", src, n.cfg.Nodes)
	}
	if int(dst) < 0 || int(dst) >= n.cfg.Nodes {
		return 0, fmt.Errorf("core: destination node %d outside [0,%d)", dst, n.cfg.Nodes)
	}
	if src == dst {
		return 0, fmt.Errorf("core: node %d cannot send to itself through the ring", src)
	}
	rec, words := n.admit(payload)
	*rec = MsgRecord{
		ID: n.nextMsg, Src: src, Dst: dst,
		Distance:   n.Distance(src, dst),
		PayloadLen: len(payload),
		Enqueued:   n.clock.Now(),
	}
	req := n.allocReq()
	*req = request{msg: flit.Message{ID: rec.ID, Src: src, Dst: dst, Payload: words}, enqueued: n.clock.Now()}
	req.dstBuf[0] = dst
	req.dsts = req.dstBuf[:1]
	n.queuePush(src, req)
	n.stats.MessagesSubmitted++
	n.rec.Submit(n.clock.Now(), *rec)
	return rec.ID, nil
}

// Idle reports whether nothing remains in flight or queued.
func (n *Network) Idle() bool {
	if len(n.active) > 0 || n.retries.Len() > 0 {
		return false
	}
	if !n.naive {
		return n.pendingCount == 0
	}
	// The naive scheduler keeps the reference scan so differential tests
	// cross-check the incremental pendingCount against ground truth.
	for _, q := range n.pending {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// Step advances the simulation by one tick, returning whether any
// progress was made (signal movement, head advance, data transfer,
// compaction move, or insertion). The phase order within a tick is:
// retry release, backward signals, forward progress, compaction,
// insertion, bookkeeping.
func (n *Network) Step() bool {
	now := n.clock.Now()
	progress := false

	// Fault transitions apply first so the entire tick — retries included —
	// observes post-fault hardware state.
	if n.faults.RunDue(now) > 0 {
		progress = true
	}
	if n.retries.RunDue(now) > 0 {
		progress = true
	}
	if n.sh != nil {
		// Sharded stepper: same phases, with the read-mostly kernels
		// fanned across arc workers and cross-arc effects committed in
		// fixed arc order (see sharded.go). Trace-identical to the
		// sequential path below by construction.
		if n.stepPhasesSharded(now) {
			progress = true
		}
	} else {
		if n.stepBackwardSignals(now) {
			progress = true
		}
		if n.stepForward(now) {
			progress = true
		}
		if !n.cfg.DisableCompaction {
			if n.stepCompaction(now) {
				progress = true
			}
		}
		if n.stepInsertion(now) {
			progress = true
		}
	}
	// Pending timers guarantee future progress: retry backoffs will fire,
	// and with the head timeout armed every blocked header eventually
	// converts into a retry. Only with the valve disabled can a blocked
	// state be a true deadlock.
	if !progress && (n.retries.Len() > 0 || n.faults.Len() > 0 ||
		(n.cfg.HeadTimeout > 0 && len(n.active) > 0)) {
		progress = true
	}

	n.sampleOccupancy()
	n.stats.Ticks++
	n.clock.Advance()

	// Runtime invariant harness: a real assertion pass under the
	// `invariants` build tag, an inlined-away no-op otherwise.
	n.checkTickInvariants(now)

	if n.cfg.Audit {
		if err := n.Audit(); err != nil {
			panic(err)
		}
	}
	return progress
}

// Close releases the sharded scheduler's worker pool, if any. The
// network stays usable: subsequent Steps take the sequential
// event-driven path, which produces identical results. Close is
// idempotent and a no-op for the other schedulers; a finalizer on the
// pool also reclaims the workers if Close is never called, so forgetting
// it leaks nothing permanently.
func (n *Network) Close() {
	if n.sh != nil {
		n.sh.pool.Close()
		n.sh = nil
	}
}

// Drain runs the network until it is idle or the tick budget is spent.
// With the event-driven scheduler, sim.Run fast-forwards across stretches
// where only retry timers are pending.
func (n *Network) Drain(maxTicks sim.Tick) error {
	_, err := sim.Run(n, sim.RunConfig{MaxTicks: maxTicks, IdleLimit: 8 * n.cfg.Nodes * n.cfg.CompactionPeriod}, n.Idle)
	return err
}

// FastForward advances the clock by up to limit ticks when every skipped
// tick is provably uneventful: no active buses, no queued insertions, and
// the earliest retry deadline strictly in the future. It performs the
// per-tick bookkeeping (tick count, insertion rotation, lockstep cycle
// counters) for the skipped span in closed form and stops exactly at the
// next retry deadline, so the following Step observes precisely the state
// the naive scheduler would have reached tick by tick. It returns the
// number of ticks skipped (0 when anything is, or may become, due).
//
// Async mode never fast-forwards: its INC FSMs hand-shake and redraw
// jitter continuously, so no tick is free of observable work.
func (n *Network) FastForward(limit sim.Tick) sim.Tick {
	if n.naive || n.cfg.Mode != Lockstep || limit <= 0 {
		return 0
	}
	if len(n.active) > 0 || n.pendingCount > 0 {
		return 0
	}
	next, ok := n.retries.NextAt()
	if fNext, fOK := n.faults.NextAt(); fOK && (!ok || fNext < next) {
		// A pending fault transition is an observable event too; the jump
		// may not cross it.
		next, ok = fNext, true
	}
	if !ok {
		return 0 // fully idle; nothing to skip toward
	}
	now := n.clock.Now()
	d := next - now
	if d <= 0 {
		return 0 // a retry fires this tick; Step must run
	}
	if d > limit {
		d = limit
	}
	if !n.cfg.DisableCompaction {
		// Count the cycle boundaries (multiples of CompactionPeriod) in
		// [now, now+d): each skipped boundary tick would have advanced the
		// odd/even cycle even with nothing to compact.
		p := int64(n.cfg.CompactionPeriod)
		crossed := boundariesBefore(int64(now)+int64(d), p) - boundariesBefore(int64(now), p)
		n.globalCycle += crossed
		n.stats.Cycles += crossed
	}
	n.insertRotate = (n.insertRotate + int(int64(d)%int64(n.cfg.Nodes))) % n.cfg.Nodes
	n.stats.Ticks += d
	// No active buses means no occupied segments, head blocks, or data
	// cursors to advance: BusySegmentTicks and peaks are unchanged. Fault
	// state, however, persists across idle stretches, so its per-tick
	// sample accumulates in closed form.
	n.stats.FaultySegmentTicks += int64(d) * int64(n.faultySegments)
	n.clock.AdvanceBy(d)
	return d
}

// boundariesBefore counts multiples of p in [0, x).
func boundariesBefore(x, p int64) int64 {
	if x <= 0 {
		return 0
	}
	return (x + p - 1) / p
}

// Stats returns a copy of the run counters.
func (n *Network) Stats() Stats { return n.stats }

// InvariantChecks reports how many per-tick runtime-invariant passes ran
// on this network: zero unless the build carries the `invariants` tag
// (internal/invariant), in which case it equals the Step count.
func (n *Network) InvariantChecks() int64 { return n.invariantChecks }

// Record returns an unfinished message's lifecycle record. The network
// forgets a message when it finishes; a History attached before then
// keeps the final record.
func (n *Network) Record(id flit.MessageID) (MsgRecord, bool) {
	r := n.record(id)
	if r == nil || r.Done {
		return MsgRecord{}, false
	}
	return *r, true
}

// ActiveVirtualBuses returns the live virtual buses in ID order. The
// returned pointers expose simulator state; callers must not mutate them.
func (n *Network) ActiveVirtualBuses() []*VirtualBus {
	return append([]*VirtualBus(nil), n.active...)
}

// VirtualBus looks up a live virtual bus by ID.
func (n *Network) VirtualBus(id VBID) (*VirtualBus, bool) {
	vb := n.lookupVB(id)
	return vb, vb != nil
}

// searchVB returns the position of id in the active set (sorted by
// ascending ID), or the insertion point if absent — sort.Search without
// the closure overhead, since this sits on the occupant-lookup hot path.
func (n *Network) searchVB(id VBID) int {
	lo, hi := 0, len(n.active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.active[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookupVB binary-searches the active set for a live virtual bus,
// returning nil when the ID is not active.
func (n *Network) lookupVB(id VBID) *VirtualBus {
	if i := n.searchVB(id); i < len(n.active) && n.active[i].ID == id {
		return n.active[i]
	}
	return nil
}

// GlobalCycle reports the lockstep odd/even cycle counter (Lockstep mode)
// or the minimum per-INC completed cycle count (Async mode).
func (n *Network) GlobalCycle() int64 {
	if n.cfg.Mode == Lockstep {
		return n.globalCycle
	}
	min := n.incs[0].fsm.Cycle
	for i := 1; i < len(n.incs); i++ {
		if c := n.incs[i].fsm.Cycle; c < min {
			min = c
		}
	}
	return min
}

// INCCycle reports the completed odd/even cycle count of one INC.
func (n *Network) INCCycle(node NodeID) int64 {
	if n.cfg.Mode == Lockstep {
		return n.globalCycle
	}
	return n.incs[node].fsm.Cycle
}

// allocVB hands out a VirtualBus for insert to initialize: a recycled
// struct from the freelist when one is parked, else a slot carved off the
// chunk arena. Callers must overwrite every field.
func (n *Network) allocVB() (vb *VirtualBus, levels []int, taps []NodeID, ticks []sim.Tick) {
	if m := len(n.vbFree); m > 0 {
		vb = n.vbFree[m-1]
		n.vbFree[m-1] = nil
		n.vbFree = n.vbFree[:m-1]
		return vb, vb.Levels[:0], vb.claimedTaps[:0], vb.progress.sendTicks[:0]
	}
	if len(n.vbArena) == 0 {
		//rmbvet:allow hotpath-alloc amortized arena refill: one chunk allocation serves the next 64 bus initializations
		n.vbArena = make([]VirtualBus, 64)
	}
	vb = &n.vbArena[0]
	n.vbArena = n.vbArena[1:]
	// A fresh struct's taps start in its inline tapBuf (the slice header
	// survives insert's wholesale overwrite — it points into vb itself).
	return vb, nil, vb.tapBuf[:0], nil
}

// carveInts returns an int slice with length 0 and capacity c backed by
// the shared arena (small requests) or its own allocation (large ones).
func (n *Network) carveInts(c int) []int {
	if c > 1024 {
		//rmbvet:allow hotpath-alloc oversized carve falls back to a dedicated allocation; only reachable on paths longer than 1024 hops
		return make([]int, 0, c)
	}
	if len(n.intArena) < c {
		//rmbvet:allow hotpath-alloc amortized arena refill: one 4096-entry chunk serves many carves
		n.intArena = make([]int, 4096)
	}
	s := n.intArena[:0:c]
	n.intArena = n.intArena[c:]
	return s
}

// carveTicks is carveInts for sendTicks buffers.
func (n *Network) carveTicks(c int) []sim.Tick {
	if c > 1024 {
		//rmbvet:allow hotpath-alloc oversized carve falls back to a dedicated allocation; only reachable on paths longer than 1024 hops
		return make([]sim.Tick, 0, c)
	}
	if len(n.tickArena) < c {
		//rmbvet:allow hotpath-alloc amortized arena refill: one 4096-entry chunk serves many carves
		n.tickArena = make([]sim.Tick, 4096)
	}
	s := n.tickArena[:0:c]
	n.tickArena = n.tickArena[c:]
	return s
}

// allocReq hands out a request struct for the caller to overwrite: a
// recycled one from the freelist (insert parks unicast requests there
// after copying the destination into the bus) or a slot carved off the
// chunk arena.
func (n *Network) allocReq() *request {
	if m := len(n.reqFree); m > 0 {
		req := n.reqFree[m-1]
		n.reqFree[m-1] = nil
		n.reqFree = n.reqFree[:m-1]
		return req
	}
	if len(n.reqArena) == 0 {
		//rmbvet:allow hotpath-alloc amortized arena refill: one chunk allocation serves the next 64 requests
		n.reqArena = make([]request, 64)
	}
	req := &n.reqArena[0]
	n.reqArena = n.reqArena[1:]
	return req
}

// setState transitions a bus's lifecycle state, keeping the forward /
// backward phase-population counters and the SoA phase bitsets in sync.
// Every State write on a registered bus must go through here (the
// sharded forward worker's direct T→FP write is the one audited
// exception: both states sit in the same populations, so every counter
// and bit is unchanged by it).
func (n *Network) setState(vb *VirtualBus, s VBState) {
	switch vb.State {
	case VBExtending:
		n.fwdActive--
		n.extBits.clear(int(vb.slot))
	case VBTransferring, VBFinalPropagating:
		n.fwdActive--
		n.xferActive--
	case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning:
		n.bwdActive--
		n.bwdBits.clear(int(vb.slot))
	case VBDone, VBRefused:
		// Terminal states belong to neither phase population.
	}
	vb.State = s
	switch s {
	case VBExtending:
		n.fwdActive++
		n.extBits.set(int(vb.slot))
	case VBTransferring, VBFinalPropagating:
		n.fwdActive++
		n.xferActive++
	case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning:
		n.bwdActive++
		n.bwdBits.set(int(vb.slot))
	case VBDone, VBRefused:
		// Terminal states belong to neither phase population.
	}
}

// addVB registers a new virtual bus in the active set. IDs are assigned
// monotonically and never reused, so the new bus always belongs at the
// end — the set stays ID-sorted by construction and the bus's slot (its
// bit index in the SoA phase bitsets) is simply the new length.
func (n *Network) addVB(vb *VirtualBus) {
	if m := len(n.active); m > 0 && n.active[m-1].ID >= vb.ID {
		panic(fmt.Sprintf("core: vb%d registered out of ID order after vb%d", vb.ID, n.active[m-1].ID))
	}
	n.active = append(n.active, vb)
	vb.slot = int32(len(n.active) - 1)
	vb.parityMask, vb.bottomMask = levelMasks(vb.Levels)
	n.growSlotBits()
	// insert always registers buses in VBExtending; the other arms admit
	// the conformance tests' hand-planted established buses.
	switch vb.State {
	case VBExtending:
		n.extBits.set(int(vb.slot))
		n.fwdActive++
	case VBTransferring, VBFinalPropagating:
		n.fwdActive++
		n.xferActive++
	case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning:
		n.bwdActive++
		n.bwdBits.set(int(vb.slot))
	case VBDone, VBRefused:
		// Terminal states belong to neither phase population.
	}
	n.awakeBits.set(int(vb.slot))
	n.compactAwake++ // a fresh bus starts awake (compactQuiet is zero)
}

// removeVB unregisters a virtual bus that has fully torn down. The bus
// must already be in a terminal state; the slice surgery is deferred to
// sweepRemoved so a tick with many teardowns compacts the active set once
// instead of shifting the pointer tail per bus. Until the sweep the dead
// entry stays searchable (the set remains ID-sorted), which keeps the
// releaseSeg wake hook working mid-phase; a dead bus holds no segments,
// so it can never be the occupant such a lookup finds.
func (n *Network) removeVB(vb *VirtualBus) {
	if vb.compactQuiet < compactQuietCycles {
		n.compactAwake--
	}
	n.deadVBs++
}

// sweepRemoved compacts terminal buses out of the active set and parks
// them on the freelist for insert to recycle. Runs at the end of the
// backward-signal phase (the only phase that tears buses down), so every
// later phase sees a clean set.
func (n *Network) sweepRemoved() {
	if n.deadVBs == 0 {
		return
	}
	out := n.active[:0]
	for _, vb := range n.active {
		if vb.State == VBDone || vb.State == VBRefused {
			n.vbFree = append(n.vbFree, vb)
			continue
		}
		out = append(out, vb)
	}
	for i := len(out); i < len(n.active); i++ {
		n.active[i] = nil // release the references
	}
	n.active = out
	n.deadVBs = 0
	n.rebuildSlots()
}

// wakeCompaction clears a bus's compaction-quiescence streak. Call sites
// are exactly the events that can newly enable a downward move for the
// bus: one of its own levels changed, its lifecycle state changed, or a
// segment directly below one of its hops was freed (releaseSeg's hook).
func (n *Network) wakeCompaction(vb *VirtualBus) {
	if vb.compactQuiet >= compactQuietCycles {
		n.compactAwake++
		n.awakeBits.set(int(vb.slot))
	}
	vb.compactQuiet = 0
}

// hopOf reports the hop index driven by node i's output ports. Node IDs
// are validated into [0, N) on entry, so this is the identity.
func (n *Network) hopOf(node NodeID) int { return int(node) }

// segFree reports whether segment l of hop h is unoccupied.
func (n *Network) segFree(h, l int) bool { return n.occFlat[h*n.cfg.Buses+l] == 0 }

// claimSeg marks segment l of hop h as used by vb, maintaining the
// occupancy bitset and flat-occupant mirrors alongside the grid.
// Claiming a faulty segment is a protocol bug: every claim site checks
// segUsable/faultyAt first, so dead hardware can never carry traffic.
func (n *Network) claimSeg(h, l int, vb *VirtualBus) {
	idx := h*n.cfg.Buses + l
	if n.occFlat[idx] != 0 {
		panic(fmt.Sprintf("core: segment hop %d level %d already occupied by vb%d, claimed by vb%d", h, l, n.occFlat[idx], vb.ID))
	}
	if n.segFaultyFlat[idx] || n.incFaulty[h] {
		panic(fmt.Sprintf("core: faulty segment hop %d level %d claimed by vb%d", h, l, vb.ID))
	}
	n.occFlat[idx] = vb.ID
	n.occBits[l].set(h)
	n.busyBits[l].set(h)
	n.occVB[idx] = vb
	n.busySegments++
}

// releaseSeg frees segment l of hop h, validating ownership. Freeing a
// segment can enable a downward move for the bus on the segment directly
// above, so that bus is woken for the next compaction cycle — the flat
// occupant mirror hands it to us without the binary search lookupVB
// used to pay here.
func (n *Network) releaseSeg(h, l int, vb VBID) {
	idx := h*n.cfg.Buses + l
	if n.occFlat[idx] != vb {
		panic(fmt.Sprintf("core: segment hop %d level %d owned by vb%d, released by vb%d", h, l, n.occFlat[idx], vb))
	}
	n.occFlat[idx] = 0
	n.occBits[l].clear(h)
	if !n.faultyBits[l].has(h) {
		// A segment that went faulty while occupied stays busy: segUsable
		// must keep reading it as permanently claimed.
		n.busyBits[l].clear(h)
	}
	n.occVB[idx] = nil
	n.busySegments--
	if l+1 < n.cfg.Buses {
		if above := n.occVB[idx+1]; above != nil {
			n.wakeCompaction(above)
		}
	}
}

// sampleOccupancy updates the utilization statistics for this tick.
func (n *Network) sampleOccupancy() {
	busy := n.busySegments
	faulty := n.faultySegments
	if n.naive {
		// Reference rescan: lets the auditor and differential tests verify
		// the incremental counters against the grid.
		busy = 0
		faulty = 0
		for h, hop := range n.occ {
			for l, id := range hop {
				if id != 0 {
					busy++
				}
				if n.faultyAt(h, l) {
					faulty++
				}
			}
		}
	}
	n.stats.BusySegmentTicks += int64(busy)
	n.stats.FaultySegmentTicks += int64(faulty)
	if busy > n.stats.PeakBusySegments {
		n.stats.PeakBusySegments = busy
	}
	if len(n.active) > n.stats.PeakActiveVBs {
		n.stats.PeakActiveVBs = len(n.active)
	}
}
