package core

import (
	"cmp"
	"math"
	"slices"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
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

// Every message of a search is named to the fault plane (fkey, src→dst,
// legSeq(attempt, leg)): the query's key, the directed edge, and which try
// of which leg it is. Two legs on one edge differ in leg — an ads-request
// copy tg→p and tg's reply to p are both MAdsRequest — so no two messages
// of a query share a name, and none depends on how many went before it.
const (
	legUplink       = iota // a leaf's request to its super peer
	legDownlink            // the super peer's answer to the leaf
	legConfirm             // a confirmation request
	legConfirmReply        // its reply
	legAdsRequest          // one copy of the ads-request flood
	legAdsReply            // a reached peer's reply
)

func legSeq(attempt, leg int) uint32 { return uint32(attempt)<<3 | uint32(leg) }

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
	sc := &s.scratch
	sc.fkey = faults.Key(ev.Time, ev.Node)
	sc.begin(&s.slots, ev.Terms)

	// Hierarchical mode: a leaf routes its request through its super peer
	// (one extra round trip and two extra messages); the search proper
	// then runs at the super peer. The uplink request is retried like any
	// other contact; the downlink reply's fate is drawn now and applied at
	// the success returns (the whole search's bytes are spent either way).
	// downMS is the downlink's time, jitter included; the answer is timed
	// from the query, so lost uplinks' waits count like confirmation retries.
	uplinkMS, downMS := sim.Clock(0), sim.Clock(0)
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
		routed := -1
		for a := 0; a < attempts; a++ {
			if a > 0 {
				s.sys.Load.Count(t0, metrics.CRetry)
				t0 += 2*uplinkMS + sim.Clock(s.cfg.RetryTimeoutMS)
			}
			uplinkBytes += int64(up)
			if s.sys.Deliver(t0, metrics.MConfirm, up, p, rp, sc.fkey, legSeq(a, legUplink)) {
				routed = a
				break
			}
		}
		if routed < 0 {
			s.sys.Load.Count(t0, metrics.CTimeout)
			return metrics.SearchResult{Bytes: uplinkBytes}
		}
		uplinkBytes += int64(down)
		downSeq := legSeq(0, legDownlink)
		downOK = s.sys.Deliver(t0, metrics.MConfirm, down, rp, p, sc.fkey, downSeq)
		t0 += uplinkMS + s.sys.JitterMS(metrics.MConfirm, p, rp, sc.fkey, legSeq(routed, legUplink))
		downMS = uplinkMS + s.sys.JitterMS(metrics.MConfirm, rp, p, sc.fkey, downSeq)
		extraHops = 1
		p = rp
	}

	ns := &s.nodes[p]
	// The minSeen watermark bounds every entry's stamp from below, so
	// the expiry sweep runs only when something can actually expire.
	staleBefore := s.staleBefore(t0)
	if ns.minSeen < staleBefore {
		s.dropStale(p, staleBefore)
	}
	// Scan the cache in insertion order through the query accumulator: one
	// match pass over each touched geometry group, then a bit test per
	// entry (see adindex.go). Every match is kept: confirmRound ranks them
	// all by round-trip time.
	srcs := s.scanCache(p, &sc.qa, staleBefore, math.MaxInt, sc.srcs[:0])
	sc.srcs = srcs
	if len(srcs) > 0 {
		s.sys.Load.Count(t0, metrics.CCacheHit)
	} else {
		s.sys.Load.Count(t0, metrics.CCacheMiss)
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
	// Table I: phase 2 runs when the cache yielded nothing, or when "more
	// responses [are] needed" than phase 1 confirmed.
	if hits >= s.cfg.MinResults || s.cfg.AdsRequestHops == 0 {
		if hits > 0 {
			if !downOK {
				s.sys.Load.Count(t0, metrics.CTimeout)
				return metrics.SearchResult{Bytes: bytes}
			}
			return metrics.SearchResult{Success: true, ResponseMS: resp - ev.Time + downMS, Bytes: bytes, Hops: 1 + extraHops, Hits: hits}
		}
		return metrics.SearchResult{Bytes: bytes}
	}

	// Phase 2: pull ads from the h-hop neighbourhood and retry.
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
	if hits+hits2 == 0 {
		return metrics.SearchResult{Bytes: bytes}
	}
	if !downOK {
		// The super peer found results but its reply to the leaf was lost:
		// the requester observes a failed (timed-out) search.
		s.sys.Load.Count(t0, metrics.CTimeout)
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
	return metrics.SearchResult{Success: true, ResponseMS: resp - ev.Time + downMS, Bytes: bytes, Hops: hops, Hits: hits + hits2}
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
				s.sys.Load.Count(sendAt, metrics.CRetry)
				sendAt += c.rtt + sim.Clock(s.cfg.RetryTimeoutMS)
			}
			bytes += int64(cb)
			qseq := legSeq(a, legConfirm)
			if !s.sys.Deliver(sendAt, metrics.MConfirm, cb, p, c.src, sc.fkey, qseq) {
				continue // request lost in transit
			}
			if !alive {
				continue // source departed: no reply will ever come
			}
			rb := sim.ConfirmReplyBytes()
			bytes += int64(rb)
			rseq := legSeq(a, legConfirmReply)
			if !s.sys.Deliver(sendAt, metrics.MConfirm, rb, c.src, p, sc.fkey, rseq) {
				continue // reply lost: same silence as a dead source
			}
			answered = true
			reply = sendAt + c.rtt + s.sys.JitterMS(metrics.MConfirm, p, c.src, sc.fkey, qseq) +
				s.sys.JitterMS(metrics.MConfirm, c.src, p, sc.fkey, rseq)
			break
		}
		if !answered {
			// Every attempt timed out. Drop the ad so later searches stop
			// paying for this contact — on-demand liveness detection
			// complementing refresh-based expiry.
			s.sys.Load.Count(sendAt, metrics.CTimeout)
			s.drop(p, c.src)
			continue
		}
		if !match {
			s.sys.Load.Count(sendAt, metrics.CConfirmNeg)
			continue // false positive or stale index: negative reply
		}
		s.sys.Load.Count(sendAt, metrics.CConfirmPos)
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
// up to RetryAttempts times before the phase is abandoned. Like any
// contact, a retry waits for the slowest addressed peer's round trip, then
// RetryTimeoutMS more.
func (s *Scheme) adsRequest(t sim.Clock, p overlay.NodeID, sc *searchScratch, qa *queryAcc) ([]candidate, int64) {
	interests := s.groupInterests(p)
	attempts := s.contactAttempts()
	var bytes int64
	offers := sc.offers[:0]
	sent := false
	arrived := false
	tA, reach := t, sim.Clock(0)
	for a := 0; a < attempts; a++ {
		if a > 0 {
			s.sys.Load.Count(tA, metrics.CRetry)
			tA += 2*reach + sim.Clock(s.cfg.RetryTimeoutMS)
		}
		targets, reqMsgs, slowest := s.hopNeighborhood(tA, p, s.cfg.AdsRequestHops, a, sc)
		reach = slowest
		if reqMsgs == 0 {
			break // no live peers to ask; nothing was (or will be) sent
		}
		sent = true
		reqBytes := int64(reqMsgs) * int64(sim.AdsRequestBytes())
		s.sys.Load.Send(tA, metrics.MAdsRequest, int(reqBytes), 0)
		bytes += reqBytes

		staleBefore := s.staleBefore(tA)
		for _, tg := range targets {
			serve := s.offer(tg.node, qa, interests, staleBefore, p, sc.serve[:0])
			sc.serve = serve
			payload := 0
			for _, snap := range serve {
				payload += sim.AdHeaderBytes + snap.fullWire
			}
			reply := sim.AdsReplyBytes(payload)
			bytes += int64(reply)
			rseq := legSeq(a, legAdsReply)
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
		s.sys.Load.Count(tA, metrics.CTimeout)
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
func (s *Scheme) offer(q overlay.NodeID, qa *queryAcc, interests content.ClassSet, staleBefore sim.Clock, requester overlay.NodeID, buf []*adSnapshot) []*adSnapshot {
	if pub := s.nodes[q].published; pub != nil && s.cfg.MaxAdsPerReply > 0 &&
		pub.src != requester && pub.topics.Intersects(interests) &&
		(qa == nil || qa.matches(pub)) {
		buf = append(buf, pub)
	}
	// Serve cache entries in insertion order: under MaxAdsPerReply the
	// subset offered must not depend on anything but replay state, or two
	// replays of one run diverge.
	return s.serveAds(q, qa, buf, interests, staleBefore, requester, s.cfg.MaxAdsPerReply)
}

// hopTarget is one reachable peer of an ads request with the one-way
// request path latency, each copy's jitter included.
type hopTarget struct {
	node    overlay.NodeID
	pathLat sim.Clock
}

// hopNeighborhood returns the peers an ads request flooded to radius h
// from p actually reaches (excluding p), the number of request messages
// the duplicate-suppressed flood sends, and the longest path latency of
// any copy it sends, lost or not. A reply returns on the direct path, no
// longer than the request's, so twice that bounds every round trip (it is
// the slowest one at h = 1). Under a fault plane a request copy can be
// lost — it still counts as sent, but the node behind it is only reached
// via surviving copies, so drops prune whole branches of the multi-hop
// case. Each copy is named by its edge and the request's attempt. A
// serving scratch's walk sends no copies: it reaches every eligible peer
// in the same BFS order, and draws no verdict, counts nothing and writes
// nothing outside sc. The returned slice is backed by sc; the BFS tracks
// visited nodes in sc's epoch-stamped slices, so it does no per-query map
// work.
func (s *Scheme) hopNeighborhood(t sim.Clock, p overlay.NodeID, h, attempt int, sc *searchScratch) ([]hopTarget, int, sim.Clock) {
	if h <= 0 {
		return nil, 0, 0
	}
	out, seq, slowest := sc.targets[:0], legSeq(attempt, legAdsRequest), sim.Clock(0)
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
				lat := sim.Clock(s.sys.Latency(u, nb))
				slowest = max(slowest, pathLat[u]+lat)
				if !sc.serving && !s.sys.Deliver(t, metrics.MAdsRequest, 0, u, nb, sc.fkey, seq) {
					continue // copy lost: nb may still arrive via another edge
				}
				if visited[nb] == epoch {
					continue
				}
				visited[nb] = epoch
				pathLat[nb] = pathLat[u] + lat + s.sys.JitterMS(metrics.MAdsRequest, u, nb, sc.fkey, seq)
				out = append(out, hopTarget{node: nb, pathLat: pathLat[nb]})
				next = append(next, nb)
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	sc.targets = out
	return out, msgs, slowest
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
