// Package results defines the JSON-serializable report format emitted by
// the CLI tools (rmbsim -json), so simulation outputs can be archived,
// diffed and post-processed outside Go. Reports embed the effective
// configuration, the run counters, per-message lifecycle records and an
// optional final occupancy snapshot.
package results

import (
	"encoding/json"
	"fmt"
	"io"

	"rmb/internal/core"
)

// FormatVersion identifies the report schema; bump on breaking changes.
const FormatVersion = 1

// Report is one serialized simulation run.
type Report struct {
	Version  int        `json:"version"`
	Workload string     `json:"workload"`
	Config   ConfigDoc  `json:"config"`
	Totals   Totals     `json:"totals"`
	Messages []Message  `json:"messages,omitempty"`
	Snapshot *Occupancy `json:"snapshot,omitempty"`
}

// ConfigDoc echoes the effective network configuration.
type ConfigDoc struct {
	Nodes             int    `json:"nodes"`
	Buses             int    `json:"buses"`
	Mode              string `json:"mode"`
	HeadRule          string `json:"headRule"`
	CompactionPeriod  int    `json:"compactionPeriod"`
	DisableCompaction bool   `json:"disableCompaction,omitempty"`
	MaxSendPerNode    int    `json:"maxSendPerNode"`
	MaxRecvPerNode    int    `json:"maxRecvPerNode"`
	HeadTimeout       int    `json:"headTimeout"`
	DackWindow        int    `json:"dackWindow,omitempty"`
	Seed              uint64 `json:"seed"`
}

// Totals carries the run counters.
type Totals struct {
	Ticks             int64   `json:"ticks"`
	MessagesSubmitted int64   `json:"messagesSubmitted"`
	Delivered         int64   `json:"delivered"`
	Insertions        int64   `json:"insertions"`
	Nacks             int64   `json:"nacks"`
	Retries           int64   `json:"retries"`
	HeadTimeouts      int64   `json:"headTimeouts"`
	CompactionMoves   int64   `json:"compactionMoves"`
	HeadBlockTicks    int64   `json:"headBlockTicks"`
	Cycles            int64   `json:"cycles"`
	MeanLatency       float64 `json:"meanLatency"`
	// MeanEstablishLatency averages enqueue-to-circuit-established time;
	// MeanLatency averages enqueue-to-delivery.
	MeanEstablishLatency float64 `json:"meanEstablishLatency"`
	MeanUtilization      float64 `json:"meanUtilization"`
	PeakVirtualBuses     int     `json:"peakVirtualBuses"`
	PeakBusySegments     int     `json:"peakBusySegments"`
	// Fault counters; all zero (and omitted) for fault-free runs.
	SegmentFailEvents   int64   `json:"segmentFailEvents,omitempty"`
	SegmentRepairEvents int64   `json:"segmentRepairEvents,omitempty"`
	INCFailEvents       int64   `json:"incFailEvents,omitempty"`
	INCRepairEvents     int64   `json:"incRepairEvents,omitempty"`
	FaultTeardowns      int64   `json:"faultTeardowns,omitempty"`
	FaultInsertRefusals int64   `json:"faultInsertRefusals,omitempty"`
	FaultDestRefusals   int64   `json:"faultDestRefusals,omitempty"`
	MeanFaultySegments  float64 `json:"meanFaultySegments,omitempty"`
}

// Message is one message's lifecycle.
type Message struct {
	ID            uint64 `json:"id"`
	Src           int32  `json:"src"`
	Dst           int32  `json:"dst"`
	Distance      int    `json:"distance"`
	PayloadLen    int    `json:"payloadLen"`
	Fanout        int    `json:"fanout,omitempty"`
	Enqueued      int64  `json:"enqueued"`
	FirstInserted int64  `json:"firstInserted"`
	Established   int64  `json:"established"`
	Delivered     int64  `json:"delivered"`
	Attempts      int    `json:"attempts"`
	Done          bool   `json:"done"`
}

// Occupancy is a final snapshot of the bus grid.
type Occupancy struct {
	At     int64      `json:"at"`
	Nodes  int        `json:"nodes"`
	Buses  int        `json:"buses"`
	Occ    [][]uint64 `json:"occ"`
	Status [][]string `json:"status"`
}

// FromNetwork builds a report from a drained (or running) network. The
// per-message list is included when hist, a History attached to n, is
// given.
func FromNetwork(n *core.Network, hist *core.History, workloadName string, includeSnapshot bool) *Report {
	cfg := n.Config()
	st := n.Stats()
	r := &Report{
		Version:  FormatVersion,
		Workload: workloadName,
		Config: ConfigDoc{
			Nodes:             cfg.Nodes,
			Buses:             cfg.Buses,
			Mode:              cfg.Mode.String(),
			HeadRule:          cfg.HeadRule.String(),
			CompactionPeriod:  cfg.CompactionPeriod,
			DisableCompaction: cfg.DisableCompaction,
			MaxSendPerNode:    cfg.MaxSendPerNode,
			MaxRecvPerNode:    cfg.MaxRecvPerNode,
			HeadTimeout:       cfg.HeadTimeout,
			DackWindow:        cfg.DackWindow,
			Seed:              cfg.Seed,
		},
		Totals: Totals{
			Ticks:                int64(st.Ticks),
			MessagesSubmitted:    st.MessagesSubmitted,
			Delivered:            st.Delivered,
			Insertions:           st.Insertions,
			Nacks:                st.Nacks,
			Retries:              st.Retries,
			HeadTimeouts:         st.HeadTimeouts,
			CompactionMoves:      st.CompactionMoves,
			HeadBlockTicks:       st.HeadBlockTicks,
			Cycles:               n.GlobalCycle(),
			MeanLatency:          st.MeanDeliverLatency(),
			MeanEstablishLatency: st.MeanEstablishLatency(),
			MeanUtilization:      st.MeanUtilization(cfg.Nodes * cfg.Buses),
			PeakVirtualBuses:     st.PeakActiveVBs,
			PeakBusySegments:     st.PeakBusySegments,
			SegmentFailEvents:    st.SegmentFailEvents,
			SegmentRepairEvents:  st.SegmentRepairEvents,
			INCFailEvents:        st.INCFailEvents,
			INCRepairEvents:      st.INCRepairEvents,
			FaultTeardowns:       st.FaultTeardowns,
			FaultInsertRefusals:  st.FaultInsertRefusals,
			FaultDestRefusals:    st.FaultDestRefusals,
			MeanFaultySegments:   st.MeanFaultySegments(),
		},
	}
	if hist != nil {
		// EachRecord visits in ascending message-ID order, so the output
		// needs no sort and no intermediate map copy.
		r.Messages = make([]Message, 0, st.MessagesSubmitted)
		hist.EachRecord(func(rec core.MsgRecord) {
			r.Messages = append(r.Messages, Message{
				ID: uint64(rec.ID), Src: int32(rec.Src), Dst: int32(rec.Dst),
				Distance: rec.Distance, PayloadLen: rec.PayloadLen, Fanout: rec.Fanout,
				Enqueued: int64(rec.Enqueued), FirstInserted: int64(rec.FirstInserted),
				Established: int64(rec.Established), Delivered: int64(rec.Delivered),
				Attempts: rec.Attempts, Done: rec.Done,
			})
		})
	}
	if includeSnapshot {
		s := n.Snapshot()
		occ := &Occupancy{At: int64(s.At), Nodes: s.Nodes, Buses: s.Buses}
		for h := range s.Occ {
			row := make([]uint64, s.Buses)
			codes := make([]string, s.Buses)
			for l := range s.Occ[h] {
				row[l] = uint64(s.Occ[h][l])
				codes[l] = s.Status[h][l].Bits()
			}
			occ.Occ = append(occ.Occ, row)
			occ.Status = append(occ.Status, codes)
		}
		r.Snapshot = occ
	}
	return r
}

// Write emits the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Read parses a report, validating the schema version.
func Read(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if r.Version != FormatVersion {
		return nil, fmt.Errorf("results: report version %d, this build reads %d", r.Version, FormatVersion)
	}
	return &r, nil
}
