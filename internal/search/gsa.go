package search

import (
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/sim"
	"asap/internal/trace"
)

// GSA is the generalized search algorithm baseline (Gkantsidis et al.,
// "Hybrid search schemes for unstructured peer-to-peer networks"): a
// one-hop flood seeds one random walker per live neighbour, and the whole
// query is bounded by a total message budget (paper: 8,000), divided
// evenly among the walkers.
type GSA struct {
	noopEvents
	// Budget caps the total number of messages one query may generate.
	Budget int
	// Seed is folded into every query's walk choices.
	Seed uint64

	sys *sim.System
	sc  *scratch
}

// NewGSA returns a GSA scheme with the paper's budget.
func NewGSA(seed uint64) *GSA { return &GSA{Budget: GSABudget, Seed: seed} }

// Name implements sim.Scheme.
func (g *GSA) Name() string { return "gsa" }

// Attach implements sim.Scheme.
func (g *GSA) Attach(sys *sim.System) {
	g.sys = sys
	g.sc = newScratch(sys.NumNodes())
}

// Search implements sim.Scheme.
func (g *GSA) Search(ev *trace.Event) metrics.SearchResult {
	sc := g.sc
	sc.begin(faults.Key(ev.Time, ev.Node))
	sc.resolve(g.sys, ev.Terms)
	return g.walk(sc, ev)
}

// walk seeds one walker per live neighbour for the resolved query and
// settles them.
func (g *GSA) walk(sc *scratch, ev *trace.Event) metrics.SearchResult {
	sys := g.sys
	src := ev.Node
	// The live view is the seed list directly — shared with the graph (no
	// per-query allocation) and stable for the query's duration, since
	// walkers never mutate the overlay.
	seeds, lat := sys.G.LiveEdges(src)
	qBytes := sim.QueryBytes(len(ev.Terms))
	if len(seeds) == 0 {
		return metrics.SearchResult{}
	}

	// Phase 1: the seed flood consumes one message per neighbour; the
	// remainder of the budget is split across the walkers they become.
	remaining := g.Budget - len(seeds)
	perWalker := 0
	if remaining > 0 {
		perWalker = remaining / len(seeds)
	}

	ckey := sc.fkey ^ g.Seed
	for i, nb := range seeds {
		arr := ev.Time + sim.Clock(lat[i])
		sc.recs = append(sc.recs, runWalker(sys, sc, ckey, i, src, nb, arr, perWalker+1))
	}
	// The seed messages themselves are already the first step of each
	// walker record (runWalker records the starting neighbour), so
	// extraMsgs is zero: every message is a recorded step.
	return settleWalk(sys, sc, sc.recs, src, ev.Time, qBytes, 0)
}
