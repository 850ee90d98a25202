// Package async is the goroutine-and-channel twin of the core RMB
// simulator: every INC is a goroutine, every bus segment between adjacent
// INCs is a pair of Go channels (a clockwise flit channel and a
// counter-clockwise acknowledgement channel), and all traffic crosses
// them as wire-encoded frames from internal/flit.
//
// The routing protocol follows the paper: headers enter only on the top
// segment of the source INC, each INC forwards an input line l to an
// output line in {l-1, l, l+1}, data flows only after a Hack, Nacks
// release the trail for a later retry, and Facks tear the circuit down.
// The compaction discipline is folded into forwarding: an INC always
// assigns the lowest free legal output line, which is the steady state
// the paper's background compaction converges to (DESIGN.md §2.5).
//
// Because goroutine scheduling is nondeterministic, this package asserts
// behavioural properties (delivered sets, payload integrity) rather than
// exact timing; the cycle-accurate timing twin is internal/core.
package async

import (
	"fmt"
	"sync"
	"time"

	"rmb/internal/flit"
)

// Config parameterizes an asynchronous RMB network.
type Config struct {
	// Nodes is N; Buses is k.
	Nodes, Buses int
	// HeadTimeout is how long a header may sit blocked at one INC before
	// the INC refuses it with a Nack (default 2ms).
	HeadTimeout time.Duration
	// RetryBase is the initial backoff before a refused message is
	// reinserted (default 1ms, doubling per attempt up to 16×).
	RetryBase time.Duration
	// MaxAttempts bounds insertions per message (default 64).
	MaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.HeadTimeout == 0 {
		c.HeadTimeout = 2 * time.Millisecond
	}
	if c.RetryBase == 0 {
		c.RetryBase = time.Millisecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 64
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("async: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.Buses < 1 {
		return fmt.Errorf("async: need at least 1 bus, got %d", c.Buses)
	}
	return nil
}

// segment is one physical bus segment between adjacent INCs: flits flow
// clockwise on fwd, acknowledgements counter-clockwise on back.
type segment struct {
	fwd  chan []byte
	back chan []byte
}

// event is one item in an INC's serialized inbox.
type event struct {
	kind eventKind
	line int
	data []byte
	req  *localSend
}

type eventKind uint8

const (
	evFlit eventKind = iota
	evAck
	evSend
	evTick
)

// localSend tracks one locally originated message through its attempts.
type localSend struct {
	msg      flit.Message
	attempts int
	// outLine is the output line the active attempt occupies (-1 idle).
	outLine int
	// accepted is set once a Hack arrives; next data index to send.
	accepted bool
	nextData int
}

// Network is a running asynchronous RMB ring.
type Network struct {
	cfg  Config
	segs [][]segment // segs[h][l]: hop h (node h -> h+1), level l

	incs []*inc

	deliveries chan flit.Message
	failures   chan flit.Message

	nextID   flit.MessageID
	ctr      counters
	idMu     sync.Mutex
	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup

	// holdReceive, when set (by tests, before the first Send), is asked
	// as a final flit reaches its destination node and again on every
	// tick after: while it returns true the final flit waits, keeping
	// that node's receive port busy.
	holdReceive func(node int) bool
}

// New builds and starts an asynchronous network.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:        cfg,
		segs:       make([][]segment, cfg.Nodes),
		deliveries: make(chan flit.Message, cfg.Nodes*4),
		failures:   make(chan flit.Message, cfg.Nodes*4),
		done:       make(chan struct{}),
	}
	for h := range n.segs {
		n.segs[h] = make([]segment, cfg.Buses)
		for l := range n.segs[h] {
			n.segs[h][l] = segment{
				fwd:  make(chan []byte, 8),
				back: make(chan []byte, 8),
			}
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		n.incs = append(n.incs, newINC(n, i))
	}
	for _, ic := range n.incs {
		ic.start()
	}
	return n, nil
}

// Deliveries exposes completed messages as they arrive at destinations.
func (n *Network) Deliveries() <-chan flit.Message { return n.deliveries }

// Failures exposes messages dropped after MaxAttempts refusals.
func (n *Network) Failures() <-chan flit.Message { return n.failures }

// Send submits a message; delivery is reported on Deliveries.
func (n *Network) Send(src, dst flit.NodeID, payload []uint64) (flit.MessageID, error) {
	if int(src) < 0 || int(src) >= n.cfg.Nodes || int(dst) < 0 || int(dst) >= n.cfg.Nodes {
		return 0, fmt.Errorf("async: send %d->%d outside [0,%d)", src, dst, n.cfg.Nodes)
	}
	if src == dst {
		return 0, fmt.Errorf("async: node %d cannot send to itself", src)
	}
	n.idMu.Lock()
	n.nextID++
	id := n.nextID
	n.idMu.Unlock()
	m := flit.Message{ID: id, Src: src, Dst: dst, Payload: append([]uint64(nil), payload...)}
	if err := n.incs[src].submit(m); err != nil {
		return 0, err
	}
	return id, nil
}

// Stop shuts the network down; it is safe to call more than once.
func (n *Network) Stop() {
	n.stopOnce.Do(func() {
		close(n.done)
	})
	n.wg.Wait()
}

// SendAndAwait sends every (src, dst, payload) demand and waits until all
// are delivered (or failed), returning the delivered messages. It fails
// if the timeout elapses first.
func (n *Network) SendAndAwait(demands []Demand, timeout time.Duration) ([]flit.Message, error) {
	want := make(map[flit.MessageID]bool, len(demands))
	for _, d := range demands {
		id, err := n.Send(d.Src, d.Dst, d.Payload)
		if err != nil {
			return nil, err
		}
		want[id] = true
	}
	var out []flit.Message
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for len(want) > 0 {
		select {
		case m := <-n.deliveries:
			if want[m.ID] {
				delete(want, m.ID)
				out = append(out, m)
			}
		case m := <-n.failures:
			return out, fmt.Errorf("async: message %d (%d->%d) failed after max attempts", m.ID, m.Src, m.Dst)
		case <-deadline.C:
			return out, fmt.Errorf("async: timed out with %d of %d messages undelivered", len(want), len(demands))
		}
	}
	return out, nil
}

// Demand is one send request for SendAndAwait.
type Demand struct {
	Src, Dst flit.NodeID
	Payload  []uint64
}
