package core

import (
	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Read-only serving search (see DESIGN.md §14). The batch-replay Search is
// a mutator: it sweeps stale cache entries, evicts silent sources, and
// merges phase-2 ad offers back into the requester's cache. The serving
// plane instead answers live queries from many goroutines against a state
// frozen by internal/serve's epoch gate, so it needs a search that touches
// nothing: SearchRO runs the same two-phase candidate discovery — the
// bit-sliced fifo cache scan, ground-truth confirmation, the h-hop
// neighbourhood pull — but filters staleness inline, confirms locally
// (serving confirmations are ground-truth content lookups, not simulated
// round trips), and never writes a single byte of scheme state. For one
// frozen state the answer is a pure function of (requester, terms), which
// is what lets the serving race test pin every concurrent answer to a
// per-epoch quiescent oracle.

// ServeScratch is one serving worker's reusable working set for SearchRO:
// probe buffers, the signature-match accumulator and epoch-stamped BFS
// state. A scratch must not be shared by concurrent calls; the serving
// layer keeps one per in-flight slot, so the steady state allocates
// nothing per query.
type ServeScratch struct {
	keys    []uint64
	probes  []bloom.Probe
	seen    map[overlay.NodeID]struct{}
	targets []overlay.NodeID
	qa      queryAcc

	visited  []uint32
	epoch    uint32
	frontier []overlay.NodeID
	next     []overlay.NodeID
}

// NewServeScratch returns a scratch ready for SearchRO.
func NewServeScratch() *ServeScratch {
	return &ServeScratch{
		probes: make([]bloom.Probe, 0, 8),
		seen:   make(map[overlay.NodeID]struct{}, 16),
	}
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
// Phase 1 scans p's representative's ads cache in fifo order through the
// bit-sliced signature index, skipping entries its staleness window has
// expired (the batch path drops them; the read-only path merely ignores
// them — the next apply section sweeps). Matches are confirmed in fifo
// order under a MaxConfirms attempt budget, the batch path's contact cap,
// and the scan stops at the MaxConfirms-th match: nothing past it would
// be confirmed.
// If fewer than MinResults verify and AdsRequestHops > 0, phase 2 walks
// the h-hop eligible neighbourhood and confirms the ads each peer would
// offer a lossless search-time pull — published ad plus cached entries
// passing the topic/staleness/probe filters, fifo order, MaxAdsPerReply
// per peer — deduplicated against phase 1, under a fresh MaxConfirms
// budget, without merging anything back.
func (s *Scheme) SearchRO(p overlay.NodeID, terms []content.Keyword, now sim.Clock, sc *ServeScratch, dst []overlay.NodeID) (ServeResult, []overlay.NodeID) {
	s.checkStable()
	rp := s.repr(p)
	if rp < 0 {
		return ServeResult{}, dst // detached leaf: nowhere to route
	}
	sc.keys = sc.keys[:0]
	for _, term := range terms {
		sc.keys = append(sc.keys, uint64(term))
	}
	sc.probes = bloom.AppendKeyProbes(sc.probes[:0], sc.keys)
	sc.qa.reset(&s.slots, sc.probes)
	clear(sc.seen)

	staleBefore := sim.Clock(minClock)
	if s.cfg.RefreshPeriodSec > 0 {
		staleBefore = now - sim.Clock(s.cfg.StaleFactor*s.cfg.RefreshPeriodSec)*1000
	}

	// Phase 1: the representative's own cache, fifo order, staleness
	// filtered inline, each match confirmed as found until MaxConfirms
	// attempts are spent.
	base := len(dst)
	ns := &s.nodes[rp]
	attempts := 0
	for _, i := range ns.live() {
		if attempts >= s.cfg.MaxConfirms {
			break
		}
		e := &ns.slab[i]
		if e.lastSeen < staleBefore || !sc.qa.matches(e.snap) {
			continue
		}
		attempts++
		sc.seen[e.snap.src] = struct{}{}
		if s.sys.G.Alive(e.snap.src) && s.groupMatches(e.snap.src, terms) {
			dst = append(dst, e.snap.src)
		}
	}
	if len(dst)-base >= s.cfg.MinResults || s.cfg.AdsRequestHops == 0 {
		return ServeResult{Sources: dst[base:]}, dst
	}

	// Phase 2: the h-hop eligible neighbourhood's offers under a fresh
	// MaxConfirms attempt budget. Only fully qualifying ads occupy a
	// peer's MaxAdsPerReply slots, exactly serveAds' accounting.
	interests := s.groupInterests(rp)
	attempts = 0
	for _, tg := range s.hopNeighborhoodRO(rp, s.cfg.AdsRequestHops, sc) {
		if attempts >= s.cfg.MaxConfirms {
			break
		}
		q := &s.nodes[tg]
		offered := 0
		if pub := q.published; pub != nil && s.cfg.MaxAdsPerReply > 0 &&
			pub.src != rp && pub.topics.Intersects(interests) && sc.qa.matches(pub) {
			offered++
			dst, attempts = s.confirmServe(pub.src, terms, dst, attempts, sc)
		}
		for _, i := range q.live() {
			if offered >= s.cfg.MaxAdsPerReply || attempts >= s.cfg.MaxConfirms {
				break
			}
			e := &q.slab[i]
			if !e.snap.topics.Intersects(interests) {
				continue
			}
			if e.lastSeen < staleBefore || e.snap.src == rp {
				continue
			}
			if !sc.qa.matches(e.snap) {
				continue
			}
			offered++
			dst, attempts = s.confirmServe(e.snap.src, terms, dst, attempts, sc)
		}
	}
	return ServeResult{Sources: dst[base:], Phase2: true}, dst
}

// confirmServe ground-truth confirms one phase-2 candidate at most once
// per query (the seen set spans both phases; duplicates spend no attempt)
// and appends it on a match.
func (s *Scheme) confirmServe(src overlay.NodeID, terms []content.Keyword, dst []overlay.NodeID, attempts int, sc *ServeScratch) ([]overlay.NodeID, int) {
	if _, dup := sc.seen[src]; dup {
		return dst, attempts
	}
	sc.seen[src] = struct{}{}
	attempts++
	if s.sys.G.Alive(src) && s.groupMatches(src, terms) {
		dst = append(dst, src)
	}
	return dst, attempts
}

// hopNeighborhoodRO returns the eligible peers within h hops of p in
// deterministic BFS order (adjacency order per frontier node, excluding
// p), the lossless read-only counterpart of hopNeighborhood. The slice is
// backed by sc.
func (s *Scheme) hopNeighborhoodRO(p overlay.NodeID, h int, sc *ServeScratch) []overlay.NodeID {
	out := sc.targets[:0]
	if h <= 0 {
		sc.targets = out
		return out
	}
	if h == 1 {
		out = append(out, s.eligibleView(p)...)
		sc.targets = out
		return out
	}
	if n := s.sys.NumNodes(); len(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	visited, epoch := sc.visited, sc.epoch
	visited[p] = epoch
	frontier := append(sc.frontier[:0], p)
	next := sc.next[:0]
	for hop := 1; hop <= h && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, u := range frontier {
			for _, nb := range s.eligibleView(u) {
				if visited[nb] == epoch {
					continue
				}
				visited[nb] = epoch
				out = append(out, nb)
				next = append(next, nb)
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	sc.targets = out
	return out
}

// ServeVersion returns the delivery seqlock's current version — even when
// no apply section is open. The serving gate records it around reads as a
// cheap cross-check of the frozen-state contract.
func (s *Scheme) ServeVersion() uint32 { return s.applyVer.Load() }
