package core

import (
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Read-only serving search (see DESIGN.md §14). The batch-replay Search is
// a mutator: it sweeps stale cache entries, evicts silent sources, and
// merges phase-2 ad offers back into the requester's cache. The serving
// plane instead answers live queries from many goroutines against a state
// frozen by internal/serve's epoch gate, so it needs a search that touches
// nothing. SearchRO is a short driver over Search's own kernel — the query
// setup (searchScratch.begin), the staleness window (staleBefore), the
// phase-1 cache scan (scanCache), the h-hop walk (hopNeighborhood) and the
// peer's ads-request reply (offer) — on a serving scratch, whose walk
// sends no simulated messages. It confirms locally (serving confirmations
// are ground-truth content lookups, not simulated round trips) and never
// writes a byte of scheme state. The one deliberate difference from Search
// is which MaxConfirms candidates a phase confirms: Search the nearest by
// round-trip time, SearchRO the first in cache and walk order. For one
// frozen state the answer is a pure function of (requester, terms), which
// is what lets the serving race test pin every concurrent answer to a
// per-epoch quiescent oracle.

// ServeScratch is one serving slot's reusable working set for SearchRO:
// the replay's per-query scratch, built in serving mode. A scratch must
// not be shared by concurrent calls; the serving layer keeps one per
// in-flight slot, so the steady state allocates nothing per query.
type ServeScratch struct {
	sc searchScratch
}

// NewServeScratch returns a scratch ready for SearchRO.
func NewServeScratch() *ServeScratch {
	rs := &ServeScratch{sc: newSearchScratch()}
	rs.sc.serving = true
	return rs
}

// ServeResult is one serving answer: the verified sources (a sub-slice of
// the caller's dst buffer) and whether phase 2 (the neighbourhood pull)
// ran.
type ServeResult struct {
	Sources []overlay.NodeID
	Phase2  bool
}

// SearchRO answers one live query for requester p at virtual time now,
// reading scheme state only. It appends verified sources (nodes that
// really hold a document matching every term, ground-truth checked) to dst
// and returns the result. The caller must hold the state frozen for the
// duration (no concurrent apply section may be open — asserted via
// checkStable); internal/serve's gate provides exactly that.
//
// Phase 1 scans p's representative's own ads cache with Search's scan,
// skipping entries the staleness window has expired (Search sweeps them;
// the read-only path merely ignores them — the next apply section sweeps),
// and confirms the first MaxConfirms matches in fifo order; the scan stops
// there. If fewer than MinResults verify and AdsRequestHops > 0, phase 2
// walks the h-hop eligible neighbourhood in BFS order and confirms what
// each peer would offer a lossless search-time ads request — published ad
// plus cached entries passing the topic/staleness/probe filters, fifo
// order, MaxAdsPerReply per peer — skipping sources phase 1 already tried,
// under a fresh MaxConfirms budget, without merging anything back.
func (s *Scheme) SearchRO(p overlay.NodeID, terms []content.Keyword, now sim.Clock, rs *ServeScratch, dst []overlay.NodeID) (ServeResult, []overlay.NodeID) {
	s.checkStable()
	rp := s.repr(p)
	if rp < 0 {
		return ServeResult{}, dst // detached leaf: nowhere to route
	}
	sc := &rs.sc
	sc.begin(&s.slots, terms)
	staleBefore := s.staleBefore(now)

	base := len(dst)
	sc.srcs = s.nodes[rp].scanCache(&sc.qa, staleBefore, s.cfg.MaxConfirms, sc.srcs[:0])
	for _, src := range sc.srcs {
		sc.confirmed[src] = true
		if s.sys.G.Alive(src) && s.groupMatches(src, terms) {
			dst = append(dst, src)
		}
	}
	if len(dst)-base >= s.cfg.MinResults || s.cfg.AdsRequestHops == 0 {
		return ServeResult{Sources: dst[base:]}, dst
	}

	interests := s.groupInterests(rp)
	targets, _ := s.hopNeighborhood(now, rp, s.cfg.AdsRequestHops, sc)
	attempts := 0
phase2:
	for _, tg := range targets {
		sc.serve = s.offer(&s.nodes[tg.node], &sc.qa, interests, staleBefore, rp, sc.serve[:0])
		for _, snap := range sc.serve {
			if attempts >= s.cfg.MaxConfirms {
				break phase2
			}
			if src := snap.src; !sc.confirmed[src] {
				sc.confirmed[src] = true
				attempts++
				if s.sys.G.Alive(src) && s.groupMatches(src, terms) {
					dst = append(dst, src)
				}
			}
		}
	}
	return ServeResult{Sources: dst[base:], Phase2: true}, dst
}
