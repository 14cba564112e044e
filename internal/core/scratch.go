package core

import (
	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// adOffer is one ad offered in an ads-request reply: the snapshot plus
// the moment it reaches the requester.
type adOffer struct {
	snap  *adSnapshot
	avail sim.Clock
}

// searchScratch is the per-query working set of Search, SearchRO,
// adsRequest and hopNeighborhood. The Scheme owns one for Search and
// NodeJoined's ads pull, which both run on the scheme's one writing
// goroutine and never nest; each serving slot owns another, wrapped in a
// ServeScratch. Each caller takes its scratch for a whole query, so the
// steady state allocates nothing per query.
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
	// begin rebinds it to the query's probes.
	qa queryAcc

	// Epoch-stamped BFS state for hopNeighborhood: visited[v] holds the
	// epoch of the last traversal that reached v, so the visited set
	// resets in O(1) per query instead of reallocating a map.
	visited  []uint32
	pathLat  []sim.Clock
	epoch    uint32
	frontier []overlay.NodeID
	next     []overlay.NodeID

	// fkey names this query's messages to the fault plane: it derives from
	// the query's (time, node) identity, and each message completes it with
	// its edge and legSeq, so every drop/jitter decision is a function of
	// the query and the message alone.
	fkey uint64

	// serving marks a serving slot's scratch (NewServeScratch): its
	// neighbourhood walks send no request copies, so they draw no
	// fault-plane verdict, count no message and write nothing outside sc.
	serving bool
}

// newSearchScratch returns an empty scratch.
func newSearchScratch() searchScratch {
	return searchScratch{
		confirmed: make(map[overlay.NodeID]bool, 8),
		seen:      make(map[overlay.NodeID]int, 8),
	}
}

// begin sets the scratch up for a query over terms: it builds the terms'
// Bloom probes once, rebinds the match accumulator to them, and empties
// the query's dedupe sets.
func (sc *searchScratch) begin(slots *adSlots, terms []content.Keyword) {
	sc.keys = sc.keys[:0]
	for _, term := range terms {
		sc.keys = append(sc.keys, uint64(term))
	}
	sc.probes = bloom.AppendKeyProbes(sc.probes[:0], sc.keys)
	sc.qa.reset(slots, sc.probes)
	clear(sc.confirmed)
	clear(sc.seen)
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
