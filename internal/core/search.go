package core

import (
	"cmp"
	"math"
	"slices"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// candidate is a confirmable ad match: the source to confirm with, the
// moment the requester can send (t0, or the arrival of the ads reply that
// carried the ad), and the round-trip time to the source.
type candidate struct {
	src   overlay.NodeID
	avail sim.Clock
	rtt   sim.Clock
}

// contactAttempts returns how many times one search contact is tried.
// Retries exist only to survive a lossy network: without an active fault
// plane every contact is attempted exactly once, whatever RetryAttempts
// says, which keeps the zero-loss replay byte-identical to the paper's
// reliable model.
func (s *Scheme) contactAttempts() int {
	if !s.sys.Faults().Active() {
		return 1
	}
	return max(1, s.cfg.RetryAttempts)
}

// Search implements sim.Scheme: the ASAP_search algorithm of Table I.
// Phase 1 scans the local ads cache and confirms the best matches with the
// ad sources (one-hop search). If that yields nothing, phase 2 requests
// interest-matching ads from all peers within AdsRequestHops, merges the
// replies into the cache, and confirms again.
//
// The query's Bloom probes are precomputed once; the cache scan then tests
// filter words directly instead of re-hashing every term per cached ad.
func (s *Scheme) Search(ev *trace.Event) metrics.SearchResult {
	p := ev.Node
	t0 := ev.Time
	sc := s.getScratch(faults.Key(ev.Time, ev.Node))
	sc.begin(&s.slots, ev.Terms)

	// Hierarchical mode: a leaf routes its request through its super peer
	// (one extra round trip and two extra messages); the search proper
	// then runs at the super peer. The uplink request is retried like any
	// other contact; the downlink reply's fate is drawn now and applied at
	// the success returns (the whole search's bytes are spent either way).
	uplinkMS := sim.Clock(0)
	var uplinkBytes int64
	extraHops := 0
	downOK := true
	if rp := s.repr(p); rp != p {
		if rp < 0 {
			return metrics.SearchResult{} // detached leaf: nowhere to route
		}
		uplinkMS = sim.Clock(s.sys.Latency(p, rp))
		up := sim.QueryBytes(len(ev.Terms))
		down := sim.QueryHitBytes()
		attempts := s.contactAttempts()
		routed := false
		for a := 0; a < attempts; a++ {
			if a > 0 {
				s.sys.CountRetry(t0)
				t0 += 2*uplinkMS + sim.Clock(s.cfg.RetryTimeoutMS)
			}
			uplinkBytes += int64(up)
			if s.sys.Deliver(t0, metrics.MConfirm, up, p, rp, sc.fkey, sc.nextSeq()) {
				routed = true
				break
			}
		}
		if !routed {
			s.sys.CountTimeout(t0)
			return metrics.SearchResult{Bytes: uplinkBytes}
		}
		s.sys.Account(t0, metrics.MConfirm, down)
		uplinkBytes += int64(down)
		downOK = s.sys.Arrives(t0, metrics.MConfirm, rp, p, sc.fkey, sc.nextSeq())
		extraHops = 1
		p = rp
		t0 += uplinkMS
	}

	tPhase1 := s.obs.Begin()
	ns := &s.nodes[p]
	// The minSeen watermark bounds every entry's lastSeen from below, so
	// the expiry sweep runs only when something can actually expire.
	staleBefore := s.staleBefore(t0)
	if ns.minSeen < staleBefore {
		s.dropStale(p, staleBefore)
	}
	// Scan the cache in insertion order through the query accumulator: one
	// match pass over each touched geometry group, then a bit test per
	// entry (see adindex.go). Every match is kept: confirmRound ranks them
	// all by round-trip time.
	srcs := ns.scanCache(&sc.qa, staleBefore, math.MaxInt, sc.srcs[:0])
	sc.srcs = srcs
	if len(srcs) > 0 {
		s.obs.Count(t0, obs.CCacheHit)
	} else {
		s.obs.Count(t0, obs.CCacheMiss)
	}
	cands := sc.cands[:0]
	for _, src := range srcs {
		cands = append(cands, candidate{src: src, avail: t0, rtt: 2 * sim.Clock(s.sys.Latency(p, src))})
	}
	sc.cands = cands

	var bytes int64
	confirmed := sc.confirmed
	hits, resp, b := s.confirmRound(p, ev.Terms, cands, confirmed, sc)
	bytes += b + uplinkBytes
	s.obs.End(obs.PSearchPhase1, tPhase1)
	// Table I: phase 2 runs when the cache yielded nothing, or when "more
	// responses [are] needed" than phase 1 confirmed.
	if hits >= s.cfg.MinResults || s.cfg.AdsRequestHops == 0 {
		if hits > 0 {
			if !downOK {
				s.sys.CountTimeout(t0)
				return metrics.SearchResult{Bytes: bytes}
			}
			return metrics.SearchResult{Success: true, ResponseMS: resp - t0 + 2*uplinkMS, Bytes: bytes, Hops: 1 + extraHops, Hits: hits}
		}
		return metrics.SearchResult{Bytes: bytes}
	}

	// Phase 2: pull ads from the h-hop neighbourhood and retry.
	tPhase2 := s.obs.Begin()
	more, b2 := s.adsRequest(t0, p, sc, &sc.qa)
	bytes += b2
	fresh := more[:0]
	for _, c := range more {
		if !confirmed[c.src] {
			fresh = append(fresh, c)
		}
	}
	hits2, resp2, b := s.confirmRound(p, ev.Terms, fresh, confirmed, sc)
	bytes += b
	s.obs.End(obs.PSearchPhase2, tPhase2)
	if hits+hits2 == 0 {
		return metrics.SearchResult{Bytes: bytes}
	}
	if !downOK {
		// The super peer found results but its reply to the leaf was lost:
		// the requester observes a failed (timed-out) search.
		s.sys.CountTimeout(t0)
		return metrics.SearchResult{Bytes: bytes}
	}
	// The first answer wins: a phase-1 hit keeps its one-hop latency even
	// when phase 2 only ran for additional results.
	hops := 1 + extraHops
	if hits == 0 {
		resp = resp2
		hops = 2 + extraHops
	} else if hits2 > 0 && resp2 < resp {
		resp = resp2
	}
	return metrics.SearchResult{Success: true, ResponseMS: resp - t0 + 2*uplinkMS, Bytes: bytes, Hops: hops, Hits: hits + hits2}
}

// confirmRound sends content confirmations to up to MaxConfirms candidates
// in parallel and returns the number of positive replies, the earliest
// positive reply time, and the traffic spent. Confirmations are checked
// against the source's real contents, so Bloom false positives,
// out-of-date filters and departed sources all surface here. All
// candidates tried are recorded in confirmed.
//
// Under an active fault plane each contact gets RetryAttempts tries — a
// lost request, a dead source, or a lost reply all look the same to the
// requester: silence until the timeout. A contact that stays silent
// through its last attempt has its ad evicted from the cache, the
// on-demand liveness cleanup of the reliable dead-source path generalised
// to lossy links (a live source whose ad was evicted re-advertises within
// a refresh period).
func (s *Scheme) confirmRound(p overlay.NodeID, terms []content.Keyword, cands []candidate, confirmed map[overlay.NodeID]bool, sc *searchScratch) (int, sim.Clock, int64) {
	if len(cands) == 0 {
		return 0, 0, 0
	}
	// The comparator totally orders candidates (src is unique within a
	// round), so the result is deterministic whatever the sort algorithm.
	slices.SortFunc(cands, func(a, b candidate) int {
		if c := cmp.Compare(a.avail+a.rtt, b.avail+b.rtt); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})
	if len(cands) > s.cfg.MaxConfirms {
		cands = cands[:s.cfg.MaxConfirms]
	}

	attempts := s.contactAttempts()
	var bytes int64
	best := sim.Clock(-1)
	positives := 0
	for _, c := range cands {
		confirmed[c.src] = true
		// Both confirmation verdicts are constant for the query's duration:
		// liveness only changes at state events, which never interleave
		// with a search, and groupMatches is a pure read, so they
		// are resolved once per candidate, outside the retry loop.
		alive := s.sys.G.Alive(c.src)
		match := alive && s.groupMatches(c.src, terms)
		cb := sim.ConfirmBytes(len(terms))
		sendAt := c.avail
		answered := false
		var reply sim.Clock
		for a := 0; a < attempts; a++ {
			if a > 0 {
				s.sys.CountRetry(sendAt)
				sendAt += c.rtt + sim.Clock(s.cfg.RetryTimeoutMS)
			}
			bytes += int64(cb)
			if !s.sys.Deliver(sendAt, metrics.MConfirm, cb, p, c.src, sc.fkey, sc.nextSeq()) {
				continue // request lost in transit
			}
			if !alive {
				continue // source departed: no reply will ever come
			}
			rb := sim.ConfirmReplyBytes()
			bytes += int64(rb)
			rseq := sc.nextSeq()
			if !s.sys.Deliver(sendAt, metrics.MConfirm, rb, c.src, p, sc.fkey, rseq) {
				continue // reply lost: same silence as a dead source
			}
			answered = true
			reply = sendAt + c.rtt + s.sys.JitterMS(metrics.MConfirm, c.src, p, sc.fkey, rseq)
			break
		}
		if !answered {
			// Every attempt timed out. Drop the ad so later searches stop
			// paying for this contact — on-demand liveness detection
			// complementing refresh-based expiry.
			s.sys.CountTimeout(sendAt)
			s.drop(p, c.src)
			continue
		}
		if !match {
			s.obs.Count(sendAt, obs.CConfirmNeg)
			continue // false positive or stale index: negative reply
		}
		s.obs.Count(sendAt, obs.CConfirmPos)
		positives++
		if best < 0 || reply < best {
			best = reply
		}
	}
	return positives, best, bytes
}

// adsRequest floods an ads request over the h-hop neighbourhood of p,
// merges the replied ads into p's cache, and returns the candidates among
// them whose filters pass every query probe. The second result is the
// traffic this cost. Returned slices are backed by sc.
//
// Reply contents depend on the request flavour. A join-time pull
// (qa == nil) returns every cached ad whose topics intersect the
// requester's interests, exactly Table I's requestAdFromNeighbors(i, h,
// I(p)). A search-time pull additionally has the neighbour filter its
// cache against the query terms — the neighbour runs the same Bloom match
// the requester would run on the replied set, so only useful ads travel.
// This keeps miss-path replies a few ads instead of the neighbour's whole
// interest-overlapping cache; the requester's subsequent lookup over the
// replied ads is unchanged. Neighbours never serve entries their own
// staleness window has expired.
//
// Every reached peer replies, even with an empty ad list, so on a lossy
// network "not one reply arrived" is the requester's retry signal: the
// whole request flood is re-issued (with fresh per-copy drop decisions)
// up to RetryAttempts times before the phase is abandoned.
func (s *Scheme) adsRequest(t sim.Clock, p overlay.NodeID, sc *searchScratch, qa *queryAcc) ([]candidate, int64) {
	interests := s.groupInterests(p)
	attempts := s.contactAttempts()
	var bytes int64
	offers := sc.offers[:0]
	sent := false
	arrived := false
	tA := t
	for a := 0; a < attempts; a++ {
		if a > 0 {
			s.sys.CountRetry(tA)
			tA += sim.Clock(s.cfg.RetryTimeoutMS)
		}
		targets, reqMsgs := s.hopNeighborhood(tA, p, s.cfg.AdsRequestHops, sc)
		if reqMsgs == 0 {
			break // no live peers to ask; nothing was (or will be) sent
		}
		sent = true
		reqBytes := int64(reqMsgs) * int64(sim.AdsRequestBytes())
		s.sys.Account(tA, metrics.MAdsRequest, int(reqBytes))
		bytes += reqBytes

		staleBefore := s.staleBefore(tA)
		for _, tg := range targets {
			serve := s.offer(&s.nodes[tg.node], qa, interests, staleBefore, p, sc.serve[:0])
			sc.serve = serve
			payload := 0
			for _, snap := range serve {
				payload += sim.AdHeaderBytes + snap.fullWire
			}
			reply := sim.AdsReplyBytes(payload)
			bytes += int64(reply)
			rseq := sc.nextSeq()
			if !s.sys.Deliver(tA, metrics.MAdsRequest, reply, tg.node, p, sc.fkey, rseq) {
				continue // the whole reply is one message; it was lost
			}
			arrived = true
			avail := tA + tg.pathLat + sim.Clock(s.sys.Latency(tg.node, p)) +
				s.sys.JitterMS(metrics.MAdsRequest, tg.node, p, sc.fkey, rseq)
			for _, snap := range serve {
				offers = append(offers, adOffer{snap: snap, avail: avail})
			}
		}
		if arrived {
			break // at least one peer answered (possibly with zero ads)
		}
	}
	if sent && !arrived {
		s.sys.CountTimeout(tA)
	}
	sc.offers = offers

	// Merge all offered ads into p's cache; on a search-time pull every
	// offered ad already passed the query probes, so each is a candidate.
	// The phase-1 candidates are dead by now, so their scratch space is
	// reused.
	cands := sc.cands[:0]
	seen := sc.seen
	for _, of := range offers {
		s.store(p, of.snap, adFull, of.avail)
		if qa != nil {
			if i, dup := seen[of.snap.src]; dup {
				if of.avail < cands[i].avail {
					cands[i].avail = of.avail
				}
				continue
			}
			seen[of.snap.src] = len(cands)
			cands = append(cands, candidate{
				src:   of.snap.src,
				avail: of.avail,
				rtt:   2 * sim.Clock(s.sys.Latency(p, of.snap.src)),
			})
		}
	}
	sc.cands = cands
	return cands, bytes
}

// offer appends to buf (which must be empty) the ads peer q sends
// requester in reply to an ads request, up to MaxAdsPerReply: q's own
// published ad first, then serveAds' cache entries. Every offered ad's
// topics intersect interests, none is the requester's own, and on a
// search-time pull (qa != nil) each passes the query probes.
func (s *Scheme) offer(q *nodeState, qa *queryAcc, interests content.ClassSet, staleBefore sim.Clock, requester overlay.NodeID, buf []*adSnapshot) []*adSnapshot {
	if pub := q.published; pub != nil && s.cfg.MaxAdsPerReply > 0 &&
		pub.src != requester && pub.topics.Intersects(interests) &&
		(qa == nil || qa.matches(pub)) {
		buf = append(buf, pub)
	}
	// Serve cache entries in insertion order: under MaxAdsPerReply the
	// subset offered must not depend on anything but replay state, or two
	// replays of one run diverge.
	return q.serveAds(qa, buf, interests, staleBefore, requester, s.cfg.MaxAdsPerReply)
}

// hopTarget is one reachable peer of an ads request with the one-way
// request path latency.
type hopTarget struct {
	node    overlay.NodeID
	pathLat sim.Clock
}

// hopNeighborhood returns the peers an ads request flooded to radius h
// from p actually reaches (excluding p) and the number of request
// messages the duplicate-suppressed flood sends. Under a fault plane a
// request copy can be lost — it still counts as sent, but the node behind
// it is only reached via surviving copies, so drops prune whole branches
// of the multi-hop case. A serving scratch's walk sends no copies: it
// reaches every eligible peer in the same BFS order, and draws no verdict,
// counts nothing and writes nothing outside sc. The returned slice is
// backed by sc; the BFS tracks visited nodes in sc's epoch-stamped slices,
// so the multi-hop case does no per-query map work.
func (s *Scheme) hopNeighborhood(t sim.Clock, p overlay.NodeID, h int, sc *searchScratch) ([]hopTarget, int) {
	if h <= 0 {
		return nil, 0
	}
	out := sc.targets[:0]
	if h == 1 {
		// The common case: direct neighbours, one request each.
		msgs := 0
		for _, nb := range s.eligibleView(p) {
			msgs++
			if !sc.serving && !s.sys.Arrives(t, metrics.MAdsRequest, p, nb, sc.fkey, sc.nextSeq()) {
				continue
			}
			out = append(out, hopTarget{node: nb, pathLat: sim.Clock(s.sys.Latency(p, nb))})
		}
		sc.targets = out
		return out, msgs
	}
	visited, pathLat := sc.bfsState(s.sys.NumNodes())
	epoch := sc.epoch
	visited[p] = epoch
	pathLat[p] = 0
	frontier := append(sc.frontier[:0], p)
	next := sc.next[:0]
	msgs := 0
	for hop := 1; hop <= h && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, u := range frontier {
			for _, nb := range s.eligibleView(u) {
				msgs++
				if !sc.serving && !s.sys.Arrives(t, metrics.MAdsRequest, u, nb, sc.fkey, sc.nextSeq()) {
					continue // copy lost: nb may still arrive via another edge
				}
				if visited[nb] == epoch {
					continue
				}
				visited[nb] = epoch
				pathLat[nb] = pathLat[u] + sim.Clock(s.sys.Latency(u, nb))
				out = append(out, hopTarget{node: nb, pathLat: pathLat[nb]})
				next = append(next, nb)
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	sc.targets = out
	return out, msgs
}

// minClock is the lowest representable virtual time; used to disable the
// staleness filter when refreshing is off.
const minClock = -1 << 62

// staleBefore returns the staleness deadline at time t: a cached ad last
// seen before it has gone StaleFactor refresh periods without news and is
// expired — swept by Search, never offered to an ads request, skipped by
// SearchRO. With refreshing off nothing expires.
func (s *Scheme) staleBefore(t sim.Clock) sim.Clock {
	if s.cfg.RefreshPeriodSec <= 0 {
		return minClock
	}
	return t - sim.Clock(s.cfg.StaleFactor*s.cfg.RefreshPeriodSec)*1000
}
