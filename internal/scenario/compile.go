package scenario

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"asap/internal/content"
	"asap/internal/experiments"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// PCG stream constants. Each compile-time randomness consumer draws from
// its own stream of the scenario seed, so adding one act kind can never
// shift the draws of another.
const (
	churnStream  = 0x5ca1ab1ec0ffee01
	flashStream  = 0xf1a5bc0bd5eed002
	rewireStream = 0x4e3712ee5eed0003
)

// Staged is a compiled scenario: the lab's trace has been replaced by the
// merged base+scenario event sequence, and ops holds the directive acts
// that trace.Directive events index (Event.Doc = ops index).
type Staged struct {
	sn  Scenario
	ops []Act
	// hasPartition forces a fault plane even at loss 0, so partition
	// drops have a plane to act through.
	hasPartition bool
}

// Stage compiles sn's acts against lab's base trace and installs the
// merged trace on the lab (replacing lab.Tr). Call between NewLab and
// system construction, so the replay horizon is sized to the merged span.
//
// Every choice is a deterministic function of (scenario seed, base
// trace): churn-storm victims and flash-crowd requesters come from
// dedicated PCG streams, so staging the same scenario on the same lab
// always produces the identical event sequence — the property the
// golden-replay tests pin.
func Stage(sn Scenario, lab *experiments.Lab) (*Staged, error) {
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	base := lab.Tr
	st := &Staged{sn: sn}

	// The stable population: nodes alive at t=0 that the base trace never
	// churns. Scenario churn and flash queries draw from it, so injected
	// Leave/Join/Query events can never collide with base churn.
	leaver := make(map[overlay.NodeID]bool)
	for i := range base.Events {
		if base.Events[i].Kind == trace.Leave {
			leaver[base.Events[i].Node] = true
		}
	}
	stable := make([]overlay.NodeID, 0, base.InitialLive)
	for n := 0; n < base.InitialLive; n++ {
		if !leaver[overlay.NodeID(n)] {
			stable = append(stable, overlay.NodeID(n))
		}
	}

	// Pass 1: churn storms claim their victims (each node at most once
	// across all storms, so leave/join pairs never interleave).
	churned := make(map[overlay.NodeID]bool)
	var injected []trace.Event
	for ai := range sn.Acts {
		a := &sn.Acts[ai]
		if a.Kind != ChurnStorm {
			continue
		}
		rng := rand.New(rand.NewPCG(sn.Seed^uint64(ai), churnStream))
		pool := make([]overlay.NodeID, 0, len(stable))
		for _, n := range stable {
			if !churned[n] {
				pool = append(pool, n)
			}
		}
		k := int(a.Frac*float64(len(pool)) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > len(pool) {
			k = len(pool)
		}
		if k == 0 {
			return nil, fmt.Errorf("scenario %s: churn storm at %dms has no stable nodes left", sn.Name, a.AtMS)
		}
		// Partial Fisher–Yates: the first k entries of pool are the victims.
		for i := 0; i < k; i++ {
			j := i + rng.IntN(len(pool)-i)
			pool[i], pool[j] = pool[j], pool[i]
		}
		half := a.DurationMS / 2
		if half < 1 {
			half = 1
		}
		for i := 0; i < k; i++ {
			n := pool[i]
			churned[n] = true
			leaveT := a.AtMS + rng.Int64N(half)
			joinT := a.AtMS + half + rng.Int64N(a.DurationMS-half+1)
			injected = append(injected,
				trace.Event{Time: leaveT, Kind: trace.Leave, Node: n},
				trace.Event{Time: joinT, Kind: trace.Join, Node: n})
		}
	}

	// Pass 2: flash crowds replay extra queries of one class, issued by
	// stable non-churned nodes, with terms/targets sampled from the base
	// trace's own queries of that class.
	requesters := make([]overlay.NodeID, 0, len(stable))
	for _, n := range stable {
		if !churned[n] {
			requesters = append(requesters, n)
		}
	}
	for ai := range sn.Acts {
		a := &sn.Acts[ai]
		if a.Kind != FlashCrowd {
			continue
		}
		class, err := resolveFlashClass(a, base, lab.U)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sn.Name, err)
		}
		var templates []int // base event indices of class-matching queries
		for i := range base.Events {
			ev := &base.Events[i]
			if ev.Kind == trace.Query && int(lab.U.ClassOf(ev.Doc)) == class {
				templates = append(templates, i)
			}
		}
		if len(templates) == 0 {
			return nil, fmt.Errorf("scenario %s: flash crowd at %dms: base trace has no class-%d queries", sn.Name, a.AtMS, class)
		}
		if len(requesters) == 0 {
			return nil, fmt.Errorf("scenario %s: flash crowd at %dms has no stable requesters", sn.Name, a.AtMS)
		}
		rng := rand.New(rand.NewPCG(sn.Seed^uint64(ai), flashStream))
		for q := 0; q < a.Queries; q++ {
			tmpl := &base.Events[templates[rng.IntN(len(templates))]]
			injected = append(injected, trace.Event{
				Time:  a.AtMS + rng.Int64N(a.DurationMS+1),
				Kind:  trace.Query,
				Node:  requesters[rng.IntN(len(requesters))],
				Doc:   tmpl.Doc,
				Terms: tmpl.Terms,
			})
		}
	}

	// Pass 3: the remaining act kinds become Directive events indexing
	// the staged op table; the director applies them mid-replay.
	for ai := range sn.Acts {
		a := sn.Acts[ai]
		switch a.Kind {
		case ChurnStorm, FlashCrowd:
			continue
		case Partition:
			st.hasPartition = true
		}
		injected = append(injected, trace.Event{
			Time: a.AtMS,
			Kind: trace.Directive,
			Doc:  content.DocID(len(st.ops)),
		})
		st.ops = append(st.ops, a)
	}

	// Merge: injected events sort by time (stable, preserving generation
	// order on ties), then interleave with the base trace, base first on
	// equal timestamps.
	sort.SliceStable(injected, func(i, j int) bool { return injected[i].Time < injected[j].Time })
	merged := &trace.Trace{
		Peers:       base.Peers,
		InitialLive: base.InitialLive,
		Events:      make([]trace.Event, 0, len(base.Events)+len(injected)),
	}
	bi, ii := 0, 0
	for bi < len(base.Events) || ii < len(injected) {
		if ii >= len(injected) || (bi < len(base.Events) && base.Events[bi].Time <= injected[ii].Time) {
			merged.Events = append(merged.Events, base.Events[bi])
			bi++
		} else {
			merged.Events = append(merged.Events, injected[ii])
			ii++
		}
	}
	lab.Tr = merged
	return st, nil
}

// resolveFlashClass resolves a flash crowd's target class; negative means
// "the base trace's most-queried class" (ties break toward the lowest
// class index, deterministically).
func resolveFlashClass(a *Act, base *trace.Trace, u *content.Universe) (int, error) {
	if a.Class >= 0 {
		return a.Class, nil
	}
	var counts [content.NumClasses]int
	for i := range base.Events {
		if base.Events[i].Kind == trace.Query {
			counts[u.ClassOf(base.Events[i].Doc)]++
		}
	}
	best, bestN := -1, 0
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("flash crowd at %dms: base trace has no queries", a.AtMS)
	}
	return best, nil
}
