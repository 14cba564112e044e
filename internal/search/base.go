package search

import (
	"math"
	"math/rand/v2"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Paper baseline parameters (§IV-A).
const (
	// FloodTTL is the flooding TTL.
	FloodTTL = 6
	// NumWalkers is the random-walk walker count.
	NumWalkers = 5
	// WalkTTL is the per-walker TTL.
	WalkTTL = 1024
	// GSABudget is the total message budget of one GSA query.
	GSABudget = 8000
	// CheckEvery is how many walk steps pass between walker check-backs
	// with the requester (Lv et al.'s "checking" policy).
	CheckEvery = 4
)

// noResponse marks "no result yet" in cascade simulations.
const noResponse = sim.Clock(math.MaxInt64)

// noopEvents provides the baseline schemes' empty reactions to state
// events: query-based search keeps no distributed state, so content
// changes and churn need no work.
type noopEvents struct{}

// ContentChanged implements sim.Scheme with no work.
func (noopEvents) ContentChanged(sim.Clock, overlay.NodeID, content.DocID, bool) {}

// NodeJoined implements sim.Scheme with no work.
func (noopEvents) NodeJoined(sim.Clock, overlay.NodeID) {}

// NodeLeft implements sim.Scheme with no work.
func (noopEvents) NodeLeft(sim.Clock, overlay.NodeID) {}

// Tick implements sim.Scheme with no work.
func (noopEvents) Tick(sim.Clock) {}

// LoadMask returns the baseline accounting mask: query messages only.
func (noopEvents) LoadMask() metrics.ClassMask { return metrics.BaselineLoadMask }

// scratch is a scheme's reusable query state: two words per node, both
// stamped with the query's epoch so nothing is cleared between queries.
// mark holds the epoch in its high half; within the current epoch a low half
// of 0 means the node was visited (the flood processed a copy there); b+1
// means a copy is pending in bucket b of the flood queue — the node's
// tentative arrival, the earliest of the copies sent to it so far. cand
// equals the epoch when the node is a candidate: it holds the query's
// rarest term (see resolve), so only it can match.
type scratch struct {
	mark  []uint64
	cand  []uint32
	epoch uint32
	terms []content.Keyword // the current query's, for matches
	q     bucketQueue
	times []sim.Clock      // walker step times
	nodes []overlay.NodeID // walker step nodes
	recs  []walkRec
	pcg   rand.PCG
	rng   *rand.Rand // draws from pcg; reseeded per query
	fkey  uint64     // names the current query's messages to the fault plane (see faults.Key)
}

// newScratch returns the query state for an n-node system. A scheme keeps
// one: the replay calls Search from one goroutine, one query at a time.
func newScratch(n int) *scratch {
	sc := &scratch{mark: make([]uint64, n), cand: make([]uint32, n)}
	sc.rng = rand.New(&sc.pcg)
	return sc
}

// begin starts a fresh query in this scratch, keyed for the fault plane.
func (s *scratch) begin(fkey uint64) {
	s.fkey = fkey
	s.epoch++
	if s.epoch == 0 { // wrapped: clear the stamps once per 2^32 queries
		clear(s.mark)
		clear(s.cand)
		s.epoch = 1
	}
	s.times = s.times[:0]
	s.nodes = s.nodes[:0]
	s.recs = s.recs[:0]
}

// resolve stamps the query's candidates: the holders of its rarest term,
// the only nodes that can match — one index lookup per query in place of
// one keyword-index probe per node the cascade reaches.
func (s *scratch) resolve(sys *sim.System, terms []content.Keyword) {
	s.terms = terms
	base, extra := sys.RarestHolders(terms)
	for _, n := range base {
		s.cand[n] = s.epoch
	}
	for _, n := range extra {
		s.cand[n] = s.epoch
	}
}

// matches reports whether n matches the resolved query, exactly as the
// per-node ground truth would. Holding the term is the whole test of a
// one-term query; otherwise a candidate is verified, lazily — only when the
// cascade reaches it.
func (s *scratch) matches(sys *sim.System, n overlay.NodeID) bool {
	return s.cand[n] == s.epoch && (len(s.terms) == 1 || sys.NodeMatches(n, s.terms))
}

func (s *scratch) visited(n overlay.NodeID) bool { return s.mark[n] == uint64(s.epoch)<<32 }

func (s *scratch) visit(n overlay.NodeID) { s.mark[n] = uint64(s.epoch) << 32 }

// claim reports whether a copy reaching n in bucket b must be queued, and
// if so records it as n's pending copy. It need not be when n was visited
// or already has a pending copy arriving no later: that copy was sent
// first and so pops first, and this one would be dropped as a duplicate.
func (s *scratch) claim(n overlay.NodeID, b sim.Clock) bool {
	key := uint64(s.epoch)<<32 | uint64(b+1)
	if m := s.mark[n]; m>>32 == uint64(s.epoch) && m <= key {
		return false
	}
	s.mark[n] = key
	return true
}

// querySeed derives a deterministic per-query RNG seed, so a query's walks
// depend on its identity alone, not on the queries replayed before it.
func querySeed(base uint64, t sim.Clock, node overlay.NodeID) uint64 {
	x := base ^ uint64(t)<<20 ^ uint64(uint32(node))
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
