package core

import (
	"asap/internal/bloom"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// adOffer is one ad offered in an ads-request reply: the snapshot plus
// the moment it reaches the requester.
type adOffer struct {
	snap  *adSnapshot
	avail sim.Clock
}

// searchScratch is the per-query working set of Search, adsRequest and
// hopNeighborhood. The Scheme owns one: Search and NodeJoined's ads pull
// both run on the scheme's one writing goroutine and never nest, so each
// takes it for its whole lifetime and the steady state allocates nothing
// per query.
type searchScratch struct {
	keys      []uint64
	probes    []bloom.Probe
	cands     []candidate
	confirmed map[overlay.NodeID]bool
	offers    []adOffer
	seen      map[overlay.NodeID]int
	targets   []hopTarget
	srcs      []overlay.NodeID // phase-1 cache-scan matches
	serve     []*adSnapshot    // per-target ads-reply assembly

	// qa is the query's signature-match accumulator (see adindex.go);
	// Search rebinds it to the query's probes once they are built.
	qa queryAcc

	// Epoch-stamped BFS state for hopNeighborhood: visited[v] holds the
	// epoch of the last traversal that reached v, so the visited set
	// resets in O(1) per query instead of reallocating a map.
	visited  []uint32
	pathLat  []sim.Clock
	epoch    uint32
	frontier []overlay.NodeID
	next     []overlay.NodeID

	// Fault-plane message stream of this query: fkey derives from the
	// query's (time, node) identity, fseq numbers its messages. Together
	// they make every drop/jitter decision a function of the query alone.
	fkey uint64
	fseq uint32
}

// nextSeq returns the query's next message sequence number.
func (sc *searchScratch) nextSeq() uint32 {
	s := sc.fseq
	sc.fseq++
	return s
}

// newSearchScratch returns an empty scratch. Non-nil empty probes keep the
// search/join pull distinction (probes == nil means a join-time interest
// pull) even for term-less queries.
func newSearchScratch() searchScratch {
	return searchScratch{
		probes:    make([]bloom.Probe, 0, 8),
		confirmed: make(map[overlay.NodeID]bool, 8),
		seen:      make(map[overlay.NodeID]int, 8),
	}
}

// getScratch resets the Scheme's scratch for a new query and returns it.
// Slices handed out of it are valid until the next call.
func (s *Scheme) getScratch() *searchScratch {
	sc := &s.scratch
	sc.keys = sc.keys[:0]
	sc.probes = sc.probes[:0]
	sc.cands = sc.cands[:0]
	sc.offers = sc.offers[:0]
	sc.targets = sc.targets[:0]
	sc.srcs = sc.srcs[:0]
	sc.serve = sc.serve[:0]
	sc.fkey = 0
	sc.fseq = 0
	clear(sc.confirmed)
	clear(sc.seen)
	return sc
}

// bfsState returns the epoch-stamped visited/latency slices sized for n
// nodes, advancing the epoch (with wrap-around reset).
func (sc *searchScratch) bfsState(n int) ([]uint32, []sim.Clock) {
	if len(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.pathLat = make([]sim.Clock, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	return sc.visited, sc.pathLat
}
