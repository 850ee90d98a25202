package core

// Full-state checkpointing: MarshalCheckpoint serializes a quiescent-
// between-ticks Network completely enough that UnmarshalCheckpoint
// rebuilds a network whose future behaviour — every RNG draw, recorder
// event, stat and delivery — is bit-identical to the original's, which
// the 32-seed checkpoint differential in checkpoint_test.go pins down.
// This is distinct from the observational Snapshot (snapshot.go): a
// Snapshot is a read-only rendering for observers and deliberately omits
// internals; a checkpoint is the internals.
//
// What gets serialized and what gets rebuilt:
//
//   - Serialized: the effective Config (recorder excluded, fault plan
//     cleared — pending fault timers are captured individually), the
//     clock, the RNG state, every live VirtualBus (including transfer
//     progress and compaction quiescence), per-INC FSM state and port
//     counters, the insertion queues, the retry wheel and fault timer
//     queues (via the serializable payloads attached at their Schedule
//     sites — closures cannot round-trip), the transfer wake wheel (its
//     raw heap array, already pointer-free), the live message window —
//     [oldest unfinished ID, next ID], with the records and payloads of
//     its unfinished messages and a Done flag for each finished one —
//     stats, and the Async dirty set. Finished messages went to the
//     delivery hooks; a checkpoint does not carry them, so it scales with
//     the live ring, not with the run's history.
//   - Rebuilt on load: the occupancy grid (replayed from each bus's
//     Levels through claimSeg), every SoA mirror (occ/faulty/busy
//     bitsets, flat occupant view, phase bitsets, packed INC status),
//     the phase population counters, fault flag mirrors, and the
//     allocation pools (which are non-semantic). Audit() then verifies
//     the reconstruction wholesale, so a corrupt checkpoint surfaces as
//     an error instead of undefined simulation.
//
// The format (version 4) is binary and length-prefixed:
//
//	magic    8 bytes, "rmb-ckpt"
//	version  1 byte, CheckpointVersion
//	sum      8 bytes, little-endian FNV-64a of the body
//	body     the sections of ckptCodec.state, in that order
//
// Bulk state — window records and payloads, INCs, live buses, queued and
// retrying requests, the wake wheel — is written as zigzag-varint columns
// (encoding/binary), with tick and ID columns as deltas. Config, Stats
// and each pending FaultEvent are length-prefixed JSON sub-sections, so a
// field added to those structs later travels with them instead of being
// dropped silently. Every length is checked against the bytes that remain
// before anything is allocated for it, and the reader accepts only the
// writer's own byte form, so a restored network re-marshals byte for
// byte. Any other version is refused with ErrUnsupportedVersion: every
// JSON (version 1) checkpoint, every version 2 checkpoint, which carried
// the whole message history, and every version 3 checkpoint, whose
// Config section still held the retired Workers field. Checkpoints are
// drain artefacts, not archives, so there is one decoder.
//
// Checkpoints are only valid at tick boundaries — between Step calls —
// where the per-phase scratch (xferScan, the dead-bus backlog) is
// provably empty.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"

	"rmb/internal/flit"
	"rmb/internal/sim"
)

// CheckpointVersion is the current checkpoint format version. Readers
// reject other versions outright: the format mirrors internal state, so
// cross-version migration would be a false promise.
const CheckpointVersion = 4

// checkpointMagic opens every checkpoint; ckptHeaderLen covers the magic,
// the version byte and the body checksum.
const (
	checkpointMagic = "rmb-ckpt"
	ckptHeaderLen   = len(checkpointMagic) + 1 + 8
)

// ErrUnsupportedVersion reports a checkpoint written in a format version
// this build does not read, including every JSON (version 1) checkpoint.
var ErrUnsupportedVersion = errors.New("unsupported checkpoint version")

// ckptVB serializes one live VirtualBus, exported and unexported fields
// alike (slot is positional and masks are derived, so neither is stored).
type ckptVB struct {
	ID            VBID
	Msg           flit.MessageID
	Src, Dst      NodeID
	Dsts          []NodeID // nil for unicast
	TapIdx        int
	Taps          []NodeID
	Levels        []int
	State         VBState
	Head          NodeID
	AckHop        int
	PayloadLen    int
	DataSent      int
	DataDelivered int
	TransferStart sim.Tick
	Inserted      sim.Tick
	Established   sim.Tick
	Delivered     sim.Tick
	Attempt       int
	HeadWait      int
	HeadLimit     int
	CompactQuiet  int8

	SendTicks    []sim.Tick
	DeliveredIdx int
	DackedIdx    int
	FFLaunchAt   sim.Tick
	FFArriveAt   sim.Tick
	FFScheduled  bool
}

// ckptINC serializes one INC's cycle FSM and port counters. Flags packs
// the OD, OC and ID flags (bits 0-2) with the Figure 9 phase (bits 3-4).
type ckptINC struct {
	Flags      uint8
	Cycle      int64
	IDDelay    int
	SendActive int
	RecvActive int
}

// ckptRequest serializes one queued or retry-pending insertion request:
// Node is the queue it waits for (its source) and At the retry deadline
// (retries only). The payload is rebuilt from the payload store by
// message ID.
type ckptRequest struct {
	Node     NodeID
	At       sim.Tick
	Msg      flit.MessageID
	Enqueued sim.Tick
	Attempts int
	Dsts     []NodeID
}

// ckptWake is one transfer wake-wheel entry, in raw heap-array order
// (the array is restored verbatim; a valid heap round-trips as itself).
type ckptWake struct {
	At sim.Tick
	VB VBID
}

// ckptState is the complete serialized network.
type ckptState struct {
	Cfg          Config
	Now          sim.Tick
	RNG          uint64
	GlobalCycle  int64
	InsertRotate int
	NextVB       VBID
	NextMsg      flit.MessageID
	RecBase      flit.MessageID // ID of Records[0]: the oldest unfinished message
	Stats        Stats
	SegFaulty    []bool
	INCFaulty    []bool
	AsyncDirty   []bool // empty outside Async mode
	INCs         []ckptINC
	Records      []MsgRecord // the window [RecBase, NextMsg]
	Payloads     [][]uint64  // Records[i].PayloadLen words if unfinished, else nil
	Active       []ckptVB
	Pending      []ckptRequest // queue order, node by node
	Retries      []ckptRequest // firing order
	Faults       []FaultEvent  // firing order; each fires at its own At
	Wheel        []ckptWake
}

// MarshalCheckpoint serializes the network's complete state. It must be
// called between Steps (never re-entrantly from a Recorder callback);
// the network is left untouched.
func (n *Network) MarshalCheckpoint() ([]byte, error) {
	return n.AppendCheckpoint(nil)
}

// AppendCheckpoint appends MarshalCheckpoint's bytes to dst and returns
// the extended slice, so a caller that frames the checkpoint in its own
// envelope writes it once, in place.
func (n *Network) AppendCheckpoint(dst []byte) ([]byte, error) {
	if n.deadVBs != 0 {
		return nil, fmt.Errorf("core: checkpoint mid-phase: %d dead buses await sweeping", n.deadVBs)
	}
	st, err := n.checkpointState()
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = slices.Grow(dst, ckptHeaderLen+st.sizeHint())
	dst = append(dst, checkpointMagic...)
	dst = append(dst, CheckpointVersion)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // sum, patched below
	c := ckptCodec{buf: dst}
	c.state(st)
	if c.err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", c.err)
	}
	out := c.buf
	binary.LittleEndian.PutUint64(out[start+ckptHeaderLen-8:], fnvSum(out[start+ckptHeaderLen:]))
	return out, nil
}

// checkpointState gathers the network's state into its serialized form.
// Payloads are shared with the network, not copied.
func (n *Network) checkpointState() (*ckptState, error) {
	st := &ckptState{
		Cfg:          n.checkpointConfig(),
		Now:          n.clock.Now(),
		RNG:          n.rng.State(),
		GlobalCycle:  n.globalCycle,
		InsertRotate: n.insertRotate,
		NextVB:       n.nextVB,
		NextMsg:      n.nextMsg,
		RecBase:      n.recBase,
		Stats:        n.stats,
		SegFaulty:    n.segFaultyFlat,
		INCFaulty:    n.incFaulty,
		AsyncDirty:   n.asyncDirty,
		Records:      make([]MsgRecord, n.windowLen()),
		Payloads:     make([][]uint64, n.windowLen()),
	}
	for i := range st.Records {
		id := n.recBase + flit.MessageID(i)
		if r := n.record(id); r != nil {
			st.Records[i] = *r
			st.Payloads[i] = n.payloadOf(id)
		} else {
			st.Records[i] = MsgRecord{ID: id, Done: true}
		}
	}
	st.INCs = make([]ckptINC, len(n.incs))
	for i := range n.incs {
		inc := &n.incs[i]
		st.INCs[i] = ckptINC{
			Flags: b2u(inc.fsm.OD) | b2u(inc.fsm.OC)<<1 | b2u(inc.fsm.ID)<<2 | uint8(inc.fsm.phase)<<3,
			Cycle: inc.fsm.Cycle, IDDelay: inc.idDelay,
			SendActive: inc.sendActive, RecvActive: inc.recvActive,
		}
	}
	st.Active = make([]ckptVB, len(n.active))
	for i, vb := range n.active {
		cv := ckptVB{
			ID: vb.ID, Msg: vb.Msg, Src: vb.Src, Dst: vb.Dst,
			TapIdx: vb.TapIdx, Taps: vb.claimedTaps,
			Levels: vb.Levels, State: vb.State,
			Head: vb.Head, AckHop: vb.AckHop,
			PayloadLen: vb.PayloadLen, DataSent: vb.DataSent, DataDelivered: vb.DataDelivered,
			TransferStart: vb.TransferStart,
			Inserted:      vb.Inserted, Established: vb.Established, Delivered: vb.Delivered,
			Attempt: vb.Attempt, HeadWait: vb.HeadWait, HeadLimit: vb.HeadLimit,
			CompactQuiet: vb.compactQuiet,
			SendTicks:    vb.progress.sendTicks,
			DeliveredIdx: vb.progress.deliveredIdx, DackedIdx: vb.progress.dackedIdx,
			FFLaunchAt: vb.progress.ffLaunchAt, FFArriveAt: vb.progress.ffArriveAt,
			FFScheduled: vb.progress.ffScheduled,
		}
		// Dsts stays nil for unicast (dstBuf is an insertion-side detail).
		if len(vb.Dsts) > 1 {
			cv.Dsts = vb.Dsts
		}
		st.Active[i] = cv
	}
	st.Pending = make([]ckptRequest, 0, n.pendingCount)
	for node, q := range n.pending {
		for _, req := range q {
			st.Pending = append(st.Pending, ckptRequestOf(NodeID(node), 0, req))
		}
	}
	for _, e := range n.retries.Pending() {
		rp, ok := e.Payload.(retryPayload)
		if !ok {
			return nil, fmt.Errorf("core: checkpoint: retry event at %v carries no serializable payload", e.At)
		}
		st.Retries = append(st.Retries, ckptRequestOf(rp.src, e.At, rp.req))
	}
	for _, e := range n.faults.Pending() {
		ev, ok := e.Payload.(FaultEvent)
		if !ok || ev.At != e.At {
			return nil, fmt.Errorf("core: checkpoint: fault event at %v carries no serializable payload", e.At)
		}
		st.Faults = append(st.Faults, ev)
	}
	st.Wheel = make([]ckptWake, len(n.wheel))
	for i, w := range n.wheel {
		st.Wheel[i] = ckptWake{At: w.at, VB: w.id}
	}
	return st, nil
}

// sizeHint estimates the encoded body size so the writer allocates once:
// a few bytes per varint, one per payload word.
func (st *ckptState) sizeHint() int {
	words := 0
	for _, p := range st.Payloads {
		words += len(p)
	}
	return 4096 + words + 16*len(st.Records) + 8*len(st.INCs) +
		64*len(st.Active) + 8*(len(st.Pending)+len(st.Retries)+len(st.Wheel))
}

// WriteCheckpoint writes MarshalCheckpoint's output to w, byte for byte
// (no terminator: the reader accepts exactly these bytes).
func (n *Network) WriteCheckpoint(w io.Writer) error {
	data, err := n.MarshalCheckpoint()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// checkpointConfig derives the serialized Config: the effective
// (defaulted) config with live-object and already-captured fields
// stripped, and the one defaulting round-trip hazard undone — an
// effective HeadTimeout of 0 means "disabled", which must re-enter
// withDefaults as HeadTimeoutDisabled or it would default back on.
func (n *Network) checkpointConfig() Config {
	cfg := n.cfg
	cfg.Recorder = nil
	cfg.Faults = FaultPlan{} // pending fault timers are captured individually
	if cfg.HeadTimeout == 0 {
		cfg.HeadTimeout = HeadTimeoutDisabled
	}
	return cfg
}

func ckptRequestOf(node NodeID, at sim.Tick, req *request) ckptRequest {
	return ckptRequest{
		Node:     node,
		At:       at,
		Msg:      req.msg.ID,
		Enqueued: req.enqueued,
		Attempts: req.attempts,
		Dsts:     req.dsts,
	}
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ckptInt is every integer kind the codec moves.
type ckptInt interface {
	~int | ~int8 | ~int32 | ~int64 | ~uint8 | ~uint64
}

// ckptCodec moves a ckptState through the version 4 body in one
// direction: the writer (dec == false) appends to buf, the reader
// (dec == true) consumes buf from off. The layout is described once, in
// state, and run by both, so the two cannot drift apart. The reader
// accepts only bytes the writer could have produced: minimal varints,
// zero flag and padding bits, and JSON in json.Marshal's own form. Its
// errors are sticky: after the first one every move is a no-op and every
// length reads as zero.
type ckptCodec struct {
	dec bool
	buf []byte
	off int
	err error
}

func (c *ckptCodec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// varint reads one zigzag varint.
func (c *ckptCodec) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.off:])
	switch {
	case n == 0:
		c.fail("truncated body at byte %d", c.off)
		return 0
	case n < 0:
		c.fail("varint at byte %d overflows 64 bits", c.off)
		return 0
	case n > 1 && c.buf[c.off+n-1] == 0:
		c.fail("non-minimal varint at byte %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// num moves one integer as a zigzag varint.
func num[T ckptInt](c *ckptCodec, p *T) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, int64(*p))
		return
	}
	v := c.varint()
	*p = T(v)
	if int64(*p) != v {
		c.fail("value %d out of range", v)
	}
}

// delta moves *p as its difference from *prev and then advances prev:
// tick and ID columns are near-monotone, so most differences fit a byte.
func delta[T ckptInt](c *ckptCodec, p, prev *T) {
	d := *p - *prev
	num(c, &d)
	if c.dec {
		*p = *prev + d
	}
	*prev = *p
}

// since moves an optional tick — zero until its event happens — as 0
// when unset and as its offset from base plus one otherwise, so an unset
// tick costs one byte rather than a varint of -base.
func since(c *ckptCodec, p *sim.Tick, base sim.Tick) {
	var v sim.Tick
	if !c.dec && *p != 0 {
		if v = *p - base + 1; v < 1 {
			c.fail("tick %d precedes its base %d", *p, base)
			return
		}
	}
	num(c, &v)
	if !c.dec || v == 0 {
		return
	}
	if *p = base + v - 1; v < 0 || *p == 0 {
		c.fail("tick offset %d from %d is not in canonical form", v, base)
	}
}

// flag moves one bool as a 0/1 varint.
func (c *ckptCodec) flag(p *bool) {
	v := b2u(*p)
	num(c, &v)
	if v > 1 {
		c.fail("flag value %d is not 0 or 1", v)
	}
	*p = v == 1
}

// count moves a length whose elements each take at least minBits bits
// of the body. The reader refuses a length the remaining bytes cannot
// hold, so the caller never allocates for data that is not there.
func (c *ckptCodec) count(n, minBits int) int {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, int64(n))
		return n
	}
	v := c.varint()
	if left := int64(len(c.buf) - c.off); v < 0 || v > left*8/int64(minBits) {
		c.fail("truncated: length %d exceeds the %d bytes that remain", v, left)
		return 0
	}
	return int(v)
}

// sized moves the length of *s (one byte per element at least) and, when
// reading, allocates it.
func sized[T any](c *ckptCodec, s *[]T) {
	n := c.count(len(*s), 8)
	if c.dec {
		*s = make([]T, n)
	}
}

// column moves one field of every element of s, in element order.
func column[T any](s []T, f func(*T)) {
	for i := range s {
		f(&s[i])
	}
}

// ints moves a length-prefixed run of integers.
func ints[T ckptInt](c *ckptCodec, s *[]T) {
	sized(c, s)
	for i := range *s {
		num(c, &(*s)[i])
	}
}

// bits moves a bool column packed eight to a byte, low bit first.
func (c *ckptCodec) bits(s *[]bool) {
	n := c.count(len(*s), 1)
	nb := (n + 7) / 8
	if !c.dec {
		for i := 0; i < nb; i++ {
			var b byte
			for j := 0; j < 8 && i*8+j < n; j++ {
				b |= b2u((*s)[i*8+j]) << j
			}
			c.buf = append(c.buf, b)
		}
		return
	}
	if c.err != nil {
		return
	}
	raw := c.buf[c.off : c.off+nb]
	c.off += nb
	if n%8 != 0 && raw[nb-1]>>(n%8) != 0 {
		c.fail("nonzero padding bits in a %d-entry bit column", n)
		return
	}
	*s = make([]bool, n)
	for i := range *s {
		(*s)[i] = raw[i/8]>>(i%8)&1 == 1
	}
}

// jsonSection moves v as a length-prefixed json.Marshal sub-section. The
// reader refuses any bytes json.Marshal would not produce from the value
// they decode to (unknown fields, other spellings, whitespace), so an
// accepted section re-encodes identically.
func (c *ckptCodec) jsonSection(v any) {
	if !c.dec {
		b, err := json.Marshal(v)
		if err != nil {
			c.fail("%w", err)
			return
		}
		c.buf = binary.AppendVarint(c.buf, int64(len(b)))
		c.buf = append(c.buf, b...)
		return
	}
	n := c.count(0, 8)
	if c.err != nil {
		return
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	if err := json.Unmarshal(b, v); err != nil {
		c.fail("decoding %T section: %v", v, err)
		return
	}
	if again, err := json.Marshal(v); err != nil || !bytes.Equal(again, b) {
		c.fail("%T section is not in canonical form", v)
	}
}

// state is the version 4 body layout, section by section.
func (c *ckptCodec) state(st *ckptState) {
	c.jsonSection(&st.Cfg)
	num(c, &st.Now)
	num(c, &st.RNG)
	num(c, &st.GlobalCycle)
	num(c, &st.InsertRotate)
	num(c, &st.NextVB)
	num(c, &st.NextMsg)
	num(c, &st.RecBase)
	c.jsonSection(&st.Stats)
	c.bits(&st.SegFaulty)
	c.bits(&st.INCFaulty)
	c.bits(&st.AsyncDirty)
	c.incs(&st.INCs)
	c.records(&st.Records, st.RecBase, st.Cfg.Nodes)
	c.payloads(st.Records, &st.Payloads)
	c.buses(&st.Active)
	c.requests(&st.Pending, false)
	c.requests(&st.Retries, true)
	c.faults(&st.Faults)
	c.wheel(&st.Wheel)
}

func (c *ckptCodec) incs(s *[]ckptINC) {
	sized(c, s)
	var cycle int64 // Lemma 1: neighbouring cycle counts differ by at most one
	column(*s, func(x *ckptINC) { num(c, &x.Flags) })
	column(*s, func(x *ckptINC) { delta(c, &x.Cycle, &cycle) })
	column(*s, func(x *ckptINC) { num(c, &x.IDDelay) })
	column(*s, func(x *ckptINC) { num(c, &x.SendActive) })
	column(*s, func(x *ckptINC) { num(c, &x.RecvActive) })
}

// records moves the window's message records. IDs are dense from base,
// so they are positional rather than stored. A finished record carries
// only its Done flag: the network has handed the message to its delivery
// hooks and keeps nothing of it but the slot. An unfinished one carries
// its fields, with Dst derived from Src and Distance, the enqueue ticks
// as deltas and the other ticks as offsets from them (Delivered is zero
// until the message finishes, so it is not stored).
func (c *ckptCodec) records(s *[]MsgRecord, base flit.MessageID, nodes int) {
	sized(c, s)
	if c.dec && len(*s) > 0 && nodes < 2 {
		c.fail("%d records on a %d-node ring", len(*s), nodes)
	}
	if c.err != nil {
		return
	}
	rs := *s
	for i := range rs {
		r := &rs[i]
		if c.dec {
			r.ID = base + flit.MessageID(i)
			continue
		}
		if r.ID != base+flit.MessageID(i) {
			c.fail("record %d carries message ID %d", i, r.ID)
		} else if !r.Done && r.Delivered != 0 {
			c.fail("unfinished message %d has a delivery tick", r.ID)
		}
	}
	column(rs, func(r *MsgRecord) { c.flag(&r.Done) })
	live := func(f func(*MsgRecord)) {
		column(rs, func(r *MsgRecord) {
			if !r.Done {
				f(r)
			}
		})
	}
	var src NodeID
	var enqueued sim.Tick
	live(func(r *MsgRecord) { delta(c, &r.Src, &src) })
	live(func(r *MsgRecord) {
		num(c, &r.Distance)
		if c.dec && c.err == nil {
			if r.Distance < 1 || r.Distance >= nodes {
				c.fail("message %d spans %d hops on a %d-node ring", r.ID, r.Distance, nodes)
				return
			}
			r.Dst = NodeID((int(r.Src) + r.Distance) % nodes)
		}
	})
	live(func(r *MsgRecord) { num(c, &r.PayloadLen) })
	live(func(r *MsgRecord) { num(c, &r.Fanout) })
	live(func(r *MsgRecord) { num(c, &r.Attempts) })
	live(func(r *MsgRecord) { delta(c, &r.Enqueued, &enqueued) })
	live(func(r *MsgRecord) { since(c, &r.FirstInserted, r.Enqueued) })
	live(func(r *MsgRecord) { since(c, &r.Established, r.Enqueued) })
}

// payloads moves every unfinished record's payload words as one column
// (a finished message's payload left with it). Their lengths are the
// records' PayloadLen, so they are not stored twice; the reader carves
// all payloads from one allocation.
func (c *ckptCodec) payloads(rs []MsgRecord, s *[][]uint64) {
	if !c.dec {
		if len(*s) != len(rs) {
			c.fail("%d payloads for %d records", len(*s), len(rs))
			return
		}
		for i, p := range *s {
			if want := payloadWords(&rs[i]); len(p) != want {
				c.fail("message %d has %d payload words but needs %d", rs[i].ID, len(p), want)
				return
			}
			for j := range p {
				num(c, &p[j])
			}
		}
		return
	}
	if c.err != nil {
		return
	}
	total, left := 0, len(c.buf)-c.off
	for i := range rs {
		l := payloadWords(&rs[i])
		if l < 0 || l > left-total {
			c.fail("truncated: message %d's %d payload words exceed the %d bytes that remain", rs[i].ID, l, left-total)
			return
		}
		total += l
	}
	words := make([]uint64, total)
	*s = make([][]uint64, len(rs))
	for i := range rs {
		l := payloadWords(&rs[i])
		if l == 0 {
			continue // empty payloads share nil, as carvePayload's do
		}
		p := words[:l:l]
		words = words[l:]
		for j := range p {
			num(c, &p[j])
		}
		(*s)[i] = p
	}
}

// payloadWords is the number of payload words a checkpoint carries for
// one window record: its PayloadLen while unfinished, none once done.
func payloadWords(r *MsgRecord) int {
	if r.Done {
		return 0
	}
	return r.PayloadLen
}

// buses moves the live virtual buses; their optional ticks are offsets
// from the insertion tick, and variable-length fields are length-prefixed
// runs.
func (c *ckptCodec) buses(s *[]ckptVB) {
	sized(c, s)
	vbs := *s
	var id VBID
	var inserted sim.Tick
	column(vbs, func(v *ckptVB) { delta(c, &v.ID, &id) })
	column(vbs, func(v *ckptVB) { num(c, &v.Msg) })
	column(vbs, func(v *ckptVB) { num(c, &v.Src) })
	column(vbs, func(v *ckptVB) { num(c, &v.Dst) })
	column(vbs, func(v *ckptVB) { ints(c, &v.Dsts) })
	column(vbs, func(v *ckptVB) { num(c, &v.TapIdx) })
	column(vbs, func(v *ckptVB) { ints(c, &v.Taps) })
	column(vbs, func(v *ckptVB) { ints(c, &v.Levels) })
	column(vbs, func(v *ckptVB) { num(c, &v.State) })
	column(vbs, func(v *ckptVB) { num(c, &v.Head) })
	column(vbs, func(v *ckptVB) { num(c, &v.AckHop) })
	column(vbs, func(v *ckptVB) { num(c, &v.PayloadLen) })
	column(vbs, func(v *ckptVB) { num(c, &v.DataSent) })
	column(vbs, func(v *ckptVB) { num(c, &v.DataDelivered) })
	column(vbs, func(v *ckptVB) { delta(c, &v.Inserted, &inserted) })
	column(vbs, func(v *ckptVB) { since(c, &v.Established, v.Inserted) })
	column(vbs, func(v *ckptVB) { since(c, &v.Delivered, v.Inserted) })
	column(vbs, func(v *ckptVB) { since(c, &v.TransferStart, v.Inserted) })
	column(vbs, func(v *ckptVB) { num(c, &v.Attempt) })
	column(vbs, func(v *ckptVB) { num(c, &v.HeadWait) })
	column(vbs, func(v *ckptVB) { num(c, &v.HeadLimit) })
	column(vbs, func(v *ckptVB) { num(c, &v.CompactQuiet) })
	column(vbs, func(v *ckptVB) { ticks(c, &v.SendTicks, v.TransferStart) })
	column(vbs, func(v *ckptVB) { num(c, &v.DeliveredIdx) })
	column(vbs, func(v *ckptVB) { num(c, &v.DackedIdx) })
	column(vbs, func(v *ckptVB) { since(c, &v.FFLaunchAt, v.Inserted) })
	column(vbs, func(v *ckptVB) { since(c, &v.FFArriveAt, v.Inserted) })
	column(vbs, func(v *ckptVB) { c.flag(&v.FFScheduled) })
}

// ticks moves a length-prefixed run of ticks, each as its delta from the
// one before (the first from base).
func ticks(c *ckptCodec, s *[]sim.Tick, base sim.Tick) {
	sized(c, s)
	column(*s, func(t *sim.Tick) { delta(c, t, &base) })
}

// requests moves a request list; only retries (timed) carry deadlines.
func (c *ckptCodec) requests(s *[]ckptRequest, timed bool) {
	sized(c, s)
	rs := *s
	var node NodeID
	var at, enqueued sim.Tick
	var msg flit.MessageID
	column(rs, func(r *ckptRequest) { delta(c, &r.Node, &node) })
	if timed {
		column(rs, func(r *ckptRequest) { delta(c, &r.At, &at) })
	}
	column(rs, func(r *ckptRequest) { delta(c, &r.Msg, &msg) })
	column(rs, func(r *ckptRequest) { delta(c, &r.Enqueued, &enqueued) })
	column(rs, func(r *ckptRequest) { num(c, &r.Attempts) })
	column(rs, func(r *ckptRequest) { ints(c, &r.Dsts) })
}

func (c *ckptCodec) faults(s *[]FaultEvent) {
	sized(c, s)
	column(*s, func(ev *FaultEvent) { c.jsonSection(ev) })
}

func (c *ckptCodec) wheel(s *[]ckptWake) {
	sized(c, s)
	var at sim.Tick
	var id VBID
	column(*s, func(w *ckptWake) { delta(c, &w.At, &at) })
	column(*s, func(w *ckptWake) { delta(c, &w.VB, &id) })
}

// UnmarshalCheckpoint rebuilds a network from MarshalCheckpoint output.
// The returned network has no recorder installed (attach one with
// SetRecorder); its future behaviour is bit-identical to the
// checkpointed original's. Corrupt input — truncation, bit flips,
// version skew, trailing bytes, or internally inconsistent state —
// returns an error; another format version returns ErrUnsupportedVersion.
func UnmarshalCheckpoint(data []byte) (*Network, error) {
	st, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	return restoreNetwork(st)
}

// RestoreCheckpoint is UnmarshalCheckpoint into an existing network of
// the checkpoint's shape: n is re-armed with Reset and then takes the
// checkpoint's state, keeping its storage — arenas, freelists and the
// capacity of its message history — so a resumed run does not regrow
// what a previous run already sized. The result is indistinguishable
// from UnmarshalCheckpoint's network. On error n is in an unspecified
// state; the caller must Reset it again or drop it.
func (n *Network) RestoreCheckpoint(data []byte) error {
	st, err := decodeCheckpoint(data)
	if err != nil {
		return err
	}
	if err := validateCkptShape(st); err != nil {
		return err
	}
	if err := n.Reset(st.Cfg); err != nil {
		return fmt.Errorf("core: checkpoint: config: %w", err)
	}
	return n.restore(st)
}

// decodeCheckpoint checks the frame and decodes the body it guards.
func decodeCheckpoint(data []byte) (*ckptState, error) {
	body, err := checkpointBody(data)
	if err != nil {
		return nil, err
	}
	return decodeCheckpointState(body)
}

// checkpointBody checks the frame — magic, version, checksum — and
// returns the body it guards.
func checkpointBody(data []byte) ([]byte, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("core: checkpoint: %w: a JSON (version 1) checkpoint; this build reads version %d only",
			ErrUnsupportedVersion, CheckpointVersion)
	}
	if len(data) < len(checkpointMagic) {
		return nil, fmt.Errorf("core: checkpoint: truncated header (%d bytes)", len(data))
	}
	if magic := data[:len(checkpointMagic)]; string(magic) != checkpointMagic {
		return nil, fmt.Errorf("core: checkpoint: bad magic %q", magic)
	}
	if len(data) < ckptHeaderLen {
		return nil, fmt.Errorf("core: checkpoint: truncated header (%d bytes)", len(data))
	}
	if v := data[len(checkpointMagic)]; v != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint: %w: version %d (this build reads version %d only)",
			ErrUnsupportedVersion, v, CheckpointVersion)
	}
	body := data[ckptHeaderLen:]
	want := binary.LittleEndian.Uint64(data[ckptHeaderLen-8:])
	if got := fnvSum(body); got != want {
		return nil, fmt.Errorf("core: checkpoint: checksum mismatch: body hashes to %#x, header says %#x", got, want)
	}
	return body, nil
}

// decodeCheckpointState parses a checksummed body; every byte of it must
// belong to a section.
func decodeCheckpointState(body []byte) (*ckptState, error) {
	c := ckptCodec{dec: true, buf: body}
	st := &ckptState{}
	c.state(st)
	if c.err == nil && c.off != len(body) {
		c.fail("%d trailing bytes after the last section", len(body)-c.off)
	}
	if c.err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", c.err)
	}
	return st, nil
}

// ReadCheckpoint reads one checkpoint from r (consuming it fully) and
// rebuilds the network.
func ReadCheckpoint(r io.Reader) (*Network, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return UnmarshalCheckpoint(data)
}

// restoreNetwork rebuilds a live Network from decoded checkpoint state,
// closing it again if the state turns out inconsistent.
func restoreNetwork(st *ckptState) (*Network, error) {
	if err := validateCkptShape(st); err != nil {
		return nil, err
	}
	n, err := NewNetwork(st.Cfg)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: config: %w", err)
	}
	if err := n.restore(st); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// restore overwrites a freshly constructed (or freshly Reset) network
// with st. The order matters: the construction-time RNG draws are
// already made, so overwrite clock/RNG, rebuild buses and claim their
// segments on a fault-free grid, then apply fault flags, then counters,
// queues and timers — and finally Audit the whole reconstruction.
func (n *Network) restore(st *ckptState) error {
	cfg := n.cfg
	if !reflect.DeepEqual(n.checkpointConfig(), st.Cfg) {
		return errors.New("core: checkpoint: config is not in the effective form a checkpoint records")
	}

	n.clock.Reset()
	n.clock.AdvanceBy(st.Now)
	n.rng.Restore(st.RNG)
	n.globalCycle = st.GlobalCycle
	n.insertRotate = st.InsertRotate
	n.nextVB = st.NextVB
	n.nextMsg = st.NextMsg
	n.stats = st.Stats

	// The live message window, laid out from index zero of the network's
	// ring — a Reset network keeps its ring, record pool and payload
	// buffers, so a resumed run does not regrow them. Unfinished records
	// take pool entries and their payloads fresh buffers, which restored
	// requests then alias as Send's do.
	n.recBase = st.RecBase
	n.growWindow(len(st.Records))
	n.recHead = 0
	for i := range st.Records {
		r := &st.Records[i]
		if r.Done {
			n.recSlot[i] = -1
			continue
		}
		if !n.onRing(r.Src) || !n.onRing(r.Dst) {
			return fmt.Errorf("core: checkpoint: message %d endpoints %d->%d outside the ring", r.ID, r.Src, r.Dst)
		}
		e := n.newEntry()
		n.pool[e] = *r
		n.entryWords(e, st.Payloads[i])
		n.recSlot[i] = e
	}

	// INC state (idDelay overwrites the construction-time draws; the RNG
	// restore above already accounts for them).
	for i := range n.incs {
		ci := st.INCs[i]
		if ci.Flags>>5 != 0 {
			return fmt.Errorf("core: checkpoint: inc%d has unknown flag bits %#x", i, ci.Flags)
		}
		n.incs[i] = incState{
			fsm: CycleFSM{
				OD: ci.Flags&1 != 0, OC: ci.Flags&2 != 0, ID: ci.Flags&4 != 0,
				Cycle: ci.Cycle, phase: Phase(ci.Flags >> 3),
			},
			idDelay:    ci.IDDelay,
			sendActive: ci.SendActive,
			recvActive: ci.RecvActive,
		}
		n.refreshSendStatus(NodeID(i))
		n.refreshRecvStatus(NodeID(i))
	}

	// Live buses, in checkpoint (== ID) order. Segments are claimed on
	// the still-fault-free grid; fault flags apply afterwards, matching
	// claimSeg's "never claim dead hardware" invariant while preserving
	// segments that went faulty after being legitimately occupied.
	for i := range st.Active {
		vb, err := restoreVB(n, &st.Active[i])
		if err != nil {
			return err
		}
		if m := len(n.active); m > 0 && n.active[m-1].ID >= vb.ID {
			return fmt.Errorf("core: checkpoint: vb%d out of ID order after vb%d", vb.ID, n.active[m-1].ID)
		}
		if vb.ID > n.nextVB {
			return fmt.Errorf("core: checkpoint: live vb%d above the allocation counter %d", vb.ID, n.nextVB)
		}
		n.active = append(n.active, vb)
		n.growSlotBits()
		for j, l := range vb.Levels {
			h := int(vb.HopNode(j, cfg.Nodes))
			if !n.segFree(h, l) {
				return fmt.Errorf("core: checkpoint: vb%d hop %d claims occupied segment (%d,%d)", vb.ID, j, h, l)
			}
			n.claimSeg(h, l, vb)
		}
		switch vb.State {
		case VBExtending:
			n.fwdActive++
		case VBTransferring, VBFinalPropagating:
			n.fwdActive++
			n.xferActive++
		case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning:
			n.bwdActive++
		case VBDone, VBRefused:
			return fmt.Errorf("core: checkpoint: terminal vb%d serialized as live", vb.ID)
		default:
			return fmt.Errorf("core: checkpoint: vb%d in unknown state %d", vb.ID, uint8(vb.State))
		}
		if vb.compactQuiet < compactQuietCycles {
			n.compactAwake++
		}
	}
	n.rebuildSlots() // slots, masks are set per-bus below; bitsets from states

	// Fault flags after the claims; refreshFaultBits keeps occupied
	// faulty segments busy, exactly as the live applyFault path does.
	copy(n.segFaultyFlat, st.SegFaulty)
	copy(n.incFaulty, st.INCFaulty)
	for h := 0; h < cfg.Nodes; h++ {
		n.refreshFaultBits(h)
	}
	n.faultySegments = 0
	for h := 0; h < cfg.Nodes; h++ {
		for l := 0; l < cfg.Buses; l++ {
			if n.faultyAt(h, l) {
				n.faultySegments++
			}
		}
	}

	// Insertion queues, retry wheel, fault timers, wake wheel. Queues and
	// timers are re-entered in their serialized order, which must be the
	// order a re-marshal reads them back in.
	for i := range st.Pending {
		r := &st.Pending[i]
		if i > 0 && r.Node < st.Pending[i-1].Node {
			return fmt.Errorf("core: checkpoint: queued request for message %d out of node order", r.Msg)
		}
		req, err := restoreRequest(n, r)
		if err != nil {
			return err
		}
		n.queuePush(r.Node, req)
	}
	for i := range st.Retries {
		r := &st.Retries[i]
		if i > 0 && r.At < st.Retries[i-1].At {
			return fmt.Errorf("core: checkpoint: retry for message %d out of firing order", r.Msg)
		}
		req, err := restoreRequest(n, r)
		if err != nil {
			return err
		}
		src := r.Node
		n.retries.ScheduleEvent(r.At, retryPayload{src: src, req: req}, func() {
			n.queuePush(src, req)
		})
	}
	for i, ev := range st.Faults {
		if i > 0 && ev.At < st.Faults[i-1].At {
			return fmt.Errorf("core: checkpoint: pending fault %v out of firing order", ev)
		}
		if err := (FaultPlan{Events: []FaultEvent{ev}}).Validate(cfg.Nodes, cfg.Buses); err != nil {
			return fmt.Errorf("core: checkpoint: pending fault: %w", err)
		}
		n.faults.ScheduleEvent(ev.At, ev, func() { n.applyFault(n.clock.Now(), ev) })
	}
	for _, w := range st.Wheel {
		n.wheel = append(n.wheel, wakeEntry{at: w.At, id: w.VB})
	}
	copy(n.asyncDirty, st.AsyncDirty)

	if err := n.Audit(); err != nil {
		return fmt.Errorf("core: checkpoint: restored state fails audit: %w", err)
	}
	return nil
}

// onRing reports whether node names one of the ring's INCs.
func (n *Network) onRing(node NodeID) bool { return node >= 0 && int(node) < n.cfg.Nodes }

func (n *Network) allOnRing(nodes []NodeID) bool {
	for _, d := range nodes {
		if !n.onRing(d) {
			return false
		}
	}
	return true
}

// validateCkptShape rejects checkpoints whose array dimensions disagree
// with their configuration before a network of that shape is built.
func validateCkptShape(st *ckptState) error {
	cfg := st.Cfg
	if len(st.INCs) != cfg.Nodes {
		return fmt.Errorf("core: checkpoint: %d INC entries for a %d-node ring", len(st.INCs), cfg.Nodes)
	}
	if cfg.Buses < 1 || cfg.Buses > len(st.SegFaulty) || len(st.SegFaulty) != cfg.Nodes*cfg.Buses {
		return fmt.Errorf("core: checkpoint: segment fault map has %d entries for a %d×%d ring", len(st.SegFaulty), cfg.Nodes, cfg.Buses)
	}
	if len(st.INCFaulty) != cfg.Nodes {
		return fmt.Errorf("core: checkpoint: INC fault map has %d entries, want %d", len(st.INCFaulty), cfg.Nodes)
	}
	wantDirty := 0
	if cfg.Mode == Async {
		wantDirty = cfg.Nodes
	}
	if len(st.AsyncDirty) != wantDirty {
		return fmt.Errorf("core: checkpoint: async dirty map has %d entries, want %d", len(st.AsyncDirty), wantDirty)
	}
	if st.RecBase < 1 || st.RecBase > st.NextMsg+1 || st.NextMsg-st.RecBase+1 != flit.MessageID(len(st.Records)) {
		return fmt.Errorf("core: checkpoint: message window [%d, %d] but %d records", st.RecBase, st.NextMsg, len(st.Records))
	}
	if st.Now < 0 {
		return fmt.Errorf("core: checkpoint: negative clock %d", st.Now)
	}
	return nil
}

// restoreVB rebuilds one live VirtualBus, re-inlining the unicast
// destination and small-tap buffers the way insert would have.
func restoreVB(n *Network, cv *ckptVB) (*VirtualBus, error) {
	cfg := n.cfg
	if !n.onRing(cv.Src) || !n.onRing(cv.Dst) || !n.onRing(cv.Head) {
		return nil, fmt.Errorf("core: checkpoint: vb%d endpoints %d->%d (head %d) outside the ring", cv.ID, cv.Src, cv.Dst, cv.Head)
	}
	if cv.Msg < 1 || cv.Msg > n.nextMsg {
		return nil, fmt.Errorf("core: checkpoint: vb%d carries unknown message %d", cv.ID, cv.Msg)
	}
	// An undelivered bus's message is unfinished, so the window holds it;
	// a delivered one's may already have been retired.
	if cv.Delivered == 0 {
		r := n.record(cv.Msg)
		if r == nil {
			return nil, fmt.Errorf("core: checkpoint: undelivered vb%d carries message %d outside the live window", cv.ID, cv.Msg)
		}
		if cv.PayloadLen != r.PayloadLen {
			return nil, fmt.Errorf("core: checkpoint: vb%d carries %d payload words of message %d's %d", cv.ID, cv.PayloadLen, cv.Msg, r.PayloadLen)
		}
	}
	if len(cv.Levels) == 0 || len(cv.Levels) >= cfg.Nodes {
		return nil, fmt.Errorf("core: checkpoint: vb%d spans %d hops on a %d-node ring", cv.ID, len(cv.Levels), cfg.Nodes)
	}
	if len(cv.Dsts) == 1 {
		return nil, fmt.Errorf("core: checkpoint: vb%d lists a unicast destination", cv.ID)
	}
	if !n.allOnRing(cv.Dsts) || !n.allOnRing(cv.Taps) {
		return nil, fmt.Errorf("core: checkpoint: vb%d names a destination outside the ring", cv.ID)
	}
	// Drawn like insert's buses, so a network restored in place recycles
	// the buses Reset parked instead of accumulating new ones.
	vb, levels, taps, ticks := n.allocVB()
	*vb = VirtualBus{
		ID: cv.ID, Msg: cv.Msg, Src: cv.Src, Dst: cv.Dst,
		TapIdx: cv.TapIdx,
		State:  cv.State,
		Head:   cv.Head, AckHop: cv.AckHop,
		PayloadLen: cv.PayloadLen, DataSent: cv.DataSent, DataDelivered: cv.DataDelivered,
		TransferStart: cv.TransferStart,
		Inserted:      cv.Inserted, Established: cv.Established, Delivered: cv.Delivered,
		Attempt: cv.Attempt, HeadWait: cv.HeadWait, HeadLimit: cv.HeadLimit,
		compactQuiet: cv.CompactQuiet,
	}
	vb.Levels = append(levels, cv.Levels...)
	if err := vb.CheckLevelInvariant(cfg.Buses); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	vb.parityMask, vb.bottomMask = levelMasks(vb.Levels)
	if len(cv.Dsts) > 1 {
		vb.Dsts = append([]NodeID(nil), cv.Dsts...)
	} else {
		vb.dstBuf[0] = cv.Dst
		vb.Dsts = vb.dstBuf[:1]
	}
	if len(cv.Taps) <= len(vb.tapBuf) {
		taps = vb.tapBuf[:0]
	}
	vb.claimedTaps = append(taps, cv.Taps...)
	// Transfer progress: the sendTicks buffer needs capacity for the full
	// payload (the naive pump appends up to PayloadLen entries).
	if c := max(len(cv.SendTicks), cv.PayloadLen); c > cap(ticks) {
		ticks = n.carveTicks(c)
	}
	vb.progress.sendTicks = append(ticks, cv.SendTicks...)
	vb.progress.deliveredIdx = cv.DeliveredIdx
	vb.progress.dackedIdx = cv.DackedIdx
	vb.progress.ffLaunchAt = cv.FFLaunchAt
	vb.progress.ffArriveAt = cv.FFArriveAt
	vb.progress.ffScheduled = cv.FFScheduled
	return vb, nil
}

// restoreRequest rebuilds one insertion request, re-aliasing its message
// payload from its record's buffer.
func restoreRequest(n *Network, cr *ckptRequest) (*request, error) {
	if !n.onRing(cr.Node) {
		return nil, fmt.Errorf("core: checkpoint: request for message %d waits at node %d outside the ring", cr.Msg, cr.Node)
	}
	rec := n.record(cr.Msg)
	if rec == nil {
		return nil, fmt.Errorf("core: checkpoint: queued request for message %d outside the live window", cr.Msg)
	}
	if len(cr.Dsts) == 0 {
		return nil, fmt.Errorf("core: checkpoint: queued request for message %d has no destinations", cr.Msg)
	}
	if !n.allOnRing(cr.Dsts) {
		return nil, fmt.Errorf("core: checkpoint: queued request for message %d targets a node outside the ring", cr.Msg)
	}
	req := n.allocReq()
	*req = request{
		msg:      flit.Message{ID: cr.Msg, Src: rec.Src, Dst: rec.Dst, Payload: n.payloadOf(cr.Msg)},
		enqueued: cr.Enqueued,
		attempts: cr.Attempts,
	}
	if len(cr.Dsts) == 1 {
		req.dstBuf[0] = cr.Dsts[0]
		req.dsts = req.dstBuf[:1]
	} else {
		req.dsts = append([]NodeID(nil), cr.Dsts...)
	}
	return req, nil
}
