package obs

import "sync/atomic"

// Phase labels one instrumented wall-clock span of a run.
type Phase int

const (
	// PTopoGen is overlay generation from scratch (fresh-graph runs).
	PTopoGen Phase = iota
	// PTopoClone is stamping a run system from a topology prototype.
	PTopoClone
	// PAttach is scheme attachment, including ASAP's warm-up ad delivery.
	PAttach
	// PReplay is the trace replay proper (everything after Attach).
	PReplay
	// PSearchPhase1 is ASAP search phase 1: the local ads-cache scan plus
	// the first confirmation round.
	PSearchPhase1
	// PSearchPhase2 is ASAP search phase 2: the ads-request flood plus the
	// second confirmation round.
	PSearchPhase2
	// PDeliverFlood is one batch of flood-based ad deliveries: a single
	// ad's cascade, or up to 64 refresh-tick ads flooded in one traversal.
	PDeliverFlood
	// PDeliverWalk is one batch of walk-based (RW or GSA) ad deliveries:
	// every walk of the batch, then its apply pass.
	PDeliverWalk

	// NumPhases is the number of instrumented phases.
	NumPhases
)

// String returns the phase's report label.
func (p Phase) String() string {
	switch p {
	case PTopoGen:
		return "topo_gen"
	case PTopoClone:
		return "topo_clone"
	case PAttach:
		return "attach"
	case PReplay:
		return "replay"
	case PSearchPhase1:
		return "search_phase1"
	case PSearchPhase2:
		return "search_phase2"
	case PDeliverFlood:
		return "deliver_flood"
	case PDeliverWalk:
		return "deliver_walk"
	default:
		return "invalid"
	}
}

// Timing accumulates wall-clock span totals per phase. The zero value is
// ready to use; add and Merge are safe for concurrent use.
type Timing struct {
	ns [NumPhases]int64
	n  [NumPhases]int64
}

// add books one span of d nanoseconds against phase p.
func (tm *Timing) add(p Phase, d int64) {
	atomic.AddInt64(&tm.ns[p], d)
	atomic.AddInt64(&tm.n[p], 1)
}

// Merge folds o's spans into tm. A nil o is a no-op.
func (tm *Timing) Merge(o *Timing) {
	if o == nil {
		return
	}
	for p := 0; p < int(NumPhases); p++ {
		atomic.AddInt64(&tm.ns[p], atomic.LoadInt64(&o.ns[p]))
		atomic.AddInt64(&tm.n[p], atomic.LoadInt64(&o.n[p]))
	}
}

// PhaseStat is one phase's aggregate for machine-readable reports.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// Stats returns the phases with at least one span, in declaration order.
func (tm *Timing) Stats() []PhaseStat {
	out := make([]PhaseStat, 0, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		n := atomic.LoadInt64(&tm.n[p])
		if n == 0 {
			continue
		}
		out = append(out, PhaseStat{
			Phase:   p.String(),
			Count:   n,
			TotalMS: float64(atomic.LoadInt64(&tm.ns[p])) / 1e6,
		})
	}
	return out
}
