package core

import (
	"math/bits"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// nextSeq increments a local per-delivery message counter. Together with
// the delivery key it names each forwarded copy uniquely, so the fault
// plane's drop decisions replay identically run over run.
func nextSeq(p *uint32) uint32 {
	v := *p
	*p++
	return v
}

// deliver pushes one ad through the overlay under the configured
// forwarding algorithm, caching it at every reached node whose interests
// intersect targeting (the delivery topic set; normally the ad's own
// topics, widened for patches). Deliveries run on the runner thread only.
//
// Under a fault plane, forwarded copies can be lost: a lost flood copy
// prunes that branch (the node may still be reached another way), a lost
// walk copy kills the walker. Senders pay for lost copies — the bytes are
// on the wire either way — so ad coverage degrades under loss while ad
// traffic does not.
func (s *Scheme) deliver(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet) {
	if s.cfg.Delivery == FLD && s.sys.FaultFree() {
		s.floodBatch(t, []floodAd{{snap, kind, targeting}})
		return
	}
	// One seqlock section brackets the whole delivery (every applyAd within
	// it included); searches cannot run concurrently with any of it.
	s.beginApply()
	defer s.endApply()
	msgBytes, class := snap.wireBytes(kind), kind.class()
	// One drop stream per delivery: (time, source) names the delivery,
	// folded with (version, kind) to separate a refresh from the full ad
	// that replaced it within the same second.
	dkey := faults.Fold(faults.Key(int64(t), snap.src), uint64(snap.version)<<2|uint64(kind))
	var dseq uint32

	td := s.obs.Begin()
	if s.cfg.Delivery == FLD {
		s.deliverFloodLossy(t, snap, kind, targeting, msgBytes, class, dkey, &dseq)
		s.obs.End(obs.PDeliverFlood, td)
	} else {
		// Warm-up deliveries (t < 0) invest the full per-topic budget to
		// seed the caches; everything published mid-run is an update of
		// already-seeded state and spends a fraction of it.
		budget := max(1, targeting.Count()) * s.cfg.BudgetUnit
		if t >= 0 {
			budget = max(1, budget/s.cfg.UpdateBudgetDiv)
		}
		starts := s.liveNeighbors(snap.src) // GSA seeds every live neighbour
		if s.cfg.Delivery == RW {
			starts = s.walkStarts(snap.src, s.cfg.Walkers)
		}
		s.deliverWalk(t, snap, kind, targeting, msgBytes, starts, budget, class, dkey, &dseq)
		s.obs.End(obs.PDeliverWalk, td)
	}
	s.acc.Flush(s.sys, class)
}

// walkStarts returns w walker start points: the source's live neighbours,
// cycled if w exceeds the neighbourhood. The result aliases s.wlkBuf and
// is valid until the next call. It copies out of the live view that
// liveNeighbors returns, never into it, so a liveNeighbors result held by
// a caller (the GSA seed path) survives a walkStarts call unclobbered —
// see TestWalkStartsLiveViewAliasing.
func (s *Scheme) walkStarts(src overlay.NodeID, w int) []overlay.NodeID {
	live := s.liveNeighbors(src)
	if len(live) == 0 {
		return nil
	}
	starts := s.wlkBuf[:0]
	for i := 0; i < w; i++ {
		starts = append(starts, live[i%len(live)])
	}
	s.wlkBuf = starts
	return starts
}

// liveNeighbors returns n's live neighbours; in hierarchical mode only
// super-peer neighbours qualify (ads travel the backbone; leaves neither
// forward nor cache). The result is the overlay's packed live view — no
// copy, no per-edge liveness test — shared with the graph and valid until
// the next overlay mutation. It does NOT alias s.wlkBuf: walkStarts may
// copy from it into wlkBuf while a caller still holds it (the GSA seed
// path does exactly that across a whole delivery).
func (s *Scheme) liveNeighbors(n overlay.NodeID) []overlay.NodeID {
	return s.eligibleView(n)
}

// maxFloodBatch is the number of sources one flood traversal carries: one
// bit of a uint64 mask each.
const maxFloodBatch = 64

// floodAd is one ad of a fault-free flood batch.
type floodAd struct {
	snap      *adSnapshot
	kind      adKind
	targeting content.ClassSet
}

// floodScratch is the flood traversal's working set (runner thread only).
// seen[v], frontier[v] and next[v] hold one bit per source of the batch:
// whose flood has reached v at all, reached it at the level being expanded,
// and reaches it at the level after. order lists the reached nodes level by
// level in discovery order — the BFS queue, and the list reset clears by,
// so a flood costs the nodes it touched, never the overlay's size. All three
// masks are zero between floods.
type floodScratch struct {
	seen, frontier, next []uint64
	order                []overlay.NodeID
	sent                 [maxFloodBatch]int // copies each source's flood put on the wire
}

func (k *floodScratch) reset() {
	for _, v := range k.order {
		k.seen[v], k.frontier[v] = 0, 0
	}
	k.order = k.order[:0]
}

// reach runs the fault-free flood of every ad in the batch at once — one
// level-synchronous traversal with TTL FloodTTL and duplicate suppression
// per source (a multi-source BFS carrying one bit per source, after Then et
// al., VLDB 2014) — and leaves reach in seen, copy counts in sent. Every
// edge is scanned once per level for the whole batch instead of once per
// source. Free riders receive ads but never forward them. With one source
// order is exactly that source's BFS queue.
func (s *Scheme) reach(ads []floodAd) {
	k := &s.flood
	order := k.order[:0]
	for i, ad := range ads {
		src := ad.snap.src
		k.sent[i] = 0
		k.seen[src] |= 1 << i
		k.frontier[src] |= 1 << i
		order = append(order, src)
	}
	for lo, hop := 0, 0; hop < s.cfg.FloodTTL && lo < len(order); hop++ {
		hi := len(order)
		for _, v := range order[lo:hi] {
			f := k.frontier[v]
			k.frontier[v] = 0
			if s.sys.FreeRider(v) {
				continue
			}
			// The eligible view is pre-filtered: no per-edge Alive or
			// cacheEligible test on the flood's inner loop. Every copy is
			// sent, even to nodes that saw the ad already.
			view := s.eligibleView(v)
			for m := f; m != 0; m &= m - 1 {
				k.sent[bits.TrailingZeros64(m)] += len(view)
			}
			for _, nb := range view {
				if fresh := f &^ k.seen[nb]; fresh != 0 {
					k.seen[nb] |= fresh
					if k.next[nb] == 0 {
						order = append(order, nb)
					}
					k.next[nb] |= fresh
				}
			}
		}
		lo = hi
		// Every expanded node cleared its frontier word, so the old
		// frontier array is the next level's all-zero next array.
		k.frontier, k.next = k.next, k.frontier
	}
	k.order = order
}

// floodBatch delivers up to maxFloodBatch flood ads at one virtual time over
// a reliable network: one traversal computes every source's reach and copy
// count, then each ad is booked and applied, source by source in batch
// order, to the nodes its own flood reached.
//
// Refresh and patch ads only ever act on nodes already caching the source's
// ad (store ignores them elsewhere), so they apply through one pass over the
// source's holder table — non-holders are never touched. A full ad inserts,
// so it applies at every reached node, in BFS order when it floods alone
// (join, first publication, warm-up). Batching the traversal ahead of the
// applications, and the holders pass's slot order, are sound because
// fault-free applications commute: a refresh or patch never inserts or
// evicts, each touches only its own (node, source) entry, a gap fetch
// re-stores into that same entry, the traversal reads none of it, and all
// accounting is integer adds at one t.
func (s *Scheme) floodBatch(t sim.Clock, ads []floodAd) {
	td := s.obs.Begin()
	s.beginApply()
	k := &s.flood
	s.reach(ads)
	var dseq uint32 // gap fetches count messages; nothing can drop them
	for i, ad := range ads {
		snap, bit, class := ad.snap, uint64(1)<<i, ad.kind.class()
		s.sys.Account(t, class, snap.wireBytes(ad.kind)*k.sent[i])
		s.obs.CountMsgN(int64(t), class, k.sent[i])
		if ad.kind == adFull {
			for _, v := range k.order {
				if k.seen[v]&bit != 0 && v != snap.src {
					s.applyAd(t, v, snap, adFull, ad.targeting, 0, &dseq)
				}
			}
			continue
		}
		// The slot names the holder's slab entry, so the pass probes no
		// table. Eligibility and interest are still tested: a hierarchy
		// change or interest drift can orphan a holder. A gap fetch
		// re-stores into the existing entry, so the table is not resized or
		// reordered under the loop.
		for _, sl := range s.holders[snap.src].slots {
			v := overlay.NodeID(sl.key) - 1
			if sl.key == 0 || k.seen[v]&bit == 0 || v == snap.src {
				continue
			}
			if !s.cacheEligible(v) || !s.groupInterests(v).Intersects(ad.targeting) {
				continue
			}
			if s.nodes[v].slab[sl.idx].merge(snap, ad.kind, t) == storedGap {
				s.fetchFull(t, v, snap.src, 0, &dseq)
			}
		}
	}
	k.reset()
	s.endApply()
	s.obs.End(obs.PDeliverFlood, td)
}

// deliverFloodLossy floods one ad under a fault plane, copy by copy: TTL
// FloodTTL, duplicate suppression, and every reached node applies the ad
// once, in BFS order — the gap fetch consumes the delivery's drop stream in
// visit order. A dropped copy leaves its receiver unseen, so a later
// surviving copy (from another branch) still reaches it. It borrows the
// flood scratch as a plain visited set and queue.
func (s *Scheme) deliverFloodLossy(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet, msgBytes int, class metrics.MsgClass, dkey uint64, dseq *uint32) {
	k := &s.flood
	queue := append(k.order[:0], snap.src)
	k.seen[snap.src] = 1
	for lo, hop := 0, 0; lo < len(queue); hop++ {
		hi := len(queue)
		for _, v := range queue[lo:hi] {
			if v != snap.src {
				s.applyAd(t, v, snap, kind, targeting, dkey, dseq)
			}
			if hop >= s.cfg.FloodTTL || s.sys.FreeRider(v) {
				continue // free riders receive ads but never forward them
			}
			for _, nb := range s.eligibleView(v) {
				s.acc.Add(t, msgBytes) // the copy is sent even to nodes that saw it
				if !s.sys.Arrives(t, class, v, nb, dkey, nextSeq(dseq)) {
					continue // copy lost; nb may still get one via another edge
				}
				if k.seen[nb] == 0 {
					k.seen[nb] = 1
					queue = append(queue, nb)
				}
			}
		}
		lo = hi
	}
	k.order = queue
	k.reset()
}

// deliverWalk forwards the ad along random walks from the given start
// nodes under a total message budget split evenly across walkers. Every
// visited node applies the ad (re-applications only bump freshness). A
// walker whose forwarded copy is lost dies on the spot — nobody detects
// the loss, so its remaining budget is simply wasted.
func (s *Scheme) deliverWalk(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet, msgBytes int, starts []overlay.NodeID, budget int, class metrics.MsgClass, dkey uint64, dseq *uint32) {
	if len(starts) == 0 {
		return
	}
	perWalker := budget / len(starts)
	if perWalker < 1 {
		perWalker = 1
	}
	if s.sys.FaultFree() {
		// No fault plane: no copy is ever lost, so walkers never die in
		// transit and the per-step Arrives calls (and the drop-seq stream
		// they would consume) vanish; accounting batches to one call per
		// delivery — every step happens at the same virtual time t.
		sent := 0
		for _, start := range starts {
			sent++
			s.applyAd(t, start, snap, kind, targeting, dkey, dseq)
			if s.sys.FreeRider(start) {
				continue // free riders kill walkers: received, never forwarded
			}
			cur, prev := start, snap.src
			for step := 1; step < perWalker; step++ {
				next := s.pickNextHop(cur, prev, targeting)
				if next < 0 {
					break
				}
				prev, cur = cur, next
				sent++
				if cur != snap.src {
					s.applyAd(t, cur, snap, kind, targeting, dkey, dseq)
				}
				if s.sys.FreeRider(cur) {
					break
				}
			}
		}
		s.acc.Add(t, msgBytes*sent)
		s.obs.CountMsgN(int64(t), class, sent)
		return
	}
	for _, start := range starts {
		cur, prev := start, snap.src
		s.acc.Add(t, msgBytes) // source → start
		if !s.sys.Arrives(t, class, snap.src, cur, dkey, nextSeq(dseq)) {
			continue // seed copy lost: this walker never starts
		}
		s.applyAd(t, cur, snap, kind, targeting, dkey, dseq)
		if s.sys.FreeRider(cur) {
			continue // free riders kill walkers: received, never forwarded
		}
		for step := 1; step < perWalker; step++ {
			next := s.pickNextHop(cur, prev, targeting)
			if next < 0 {
				break
			}
			prev, cur = cur, next
			s.acc.Add(t, msgBytes)
			if !s.sys.Arrives(t, class, prev, cur, dkey, nextSeq(dseq)) {
				break // walker lost in transit
			}
			if cur != snap.src {
				s.applyAd(t, cur, snap, kind, targeting, dkey, dseq)
			}
			if s.sys.FreeRider(cur) {
				break
			}
		}
	}
}

// pickNextHop chooses a delivery walker's next hop. With BiasedDelivery
// it prefers neighbours whose (group) interests intersect the ad's
// targeting topics, steering ads toward potential consumers at equal
// budget; otherwise it falls back to the uniform pick.
func (s *Scheme) pickNextHop(cur, prev overlay.NodeID, targeting content.ClassSet) overlay.NodeID {
	if !s.cfg.BiasedDelivery {
		return s.pickLiveNeighbor(cur, prev)
	}
	nbs := s.eligibleView(cur)
	interested, other := 0, 0
	for _, nb := range nbs {
		if nb == prev {
			continue
		}
		if s.groupInterests(nb).Intersects(targeting) {
			interested++
		} else {
			other++
		}
	}
	if interested == 0 && other == 0 {
		return s.pickLiveNeighbor(cur, prev) // only prev (or nothing) left
	}
	wantInterested := interested > 0
	pool := interested
	if !wantInterested {
		pool = other
	}
	k := s.rng.IntN(pool)
	for _, nb := range nbs {
		if nb == prev {
			continue
		}
		if s.groupInterests(nb).Intersects(targeting) != wantInterested {
			continue
		}
		if k == 0 {
			return nb
		}
		k--
	}
	return -1 // unreachable
}

// pickLiveNeighbor picks a uniformly random live neighbour of cur,
// avoiding an immediate return to prev when alternatives exist.
// Adjacency holds no duplicate edges, so prev appears at most once: one
// early-exiting indexOf scan replaces the count-then-select double scan,
// with the same rng draw and the same pick as selecting the k-th
// non-prev element in view order.
func (s *Scheme) pickLiveNeighbor(cur, prev overlay.NodeID) overlay.NodeID {
	nbs := s.eligibleView(cur)
	if len(nbs) == 0 {
		return -1
	}
	pi := -1
	for i, nb := range nbs {
		if nb == prev {
			pi = i
			break
		}
	}
	liveNotPrev := len(nbs)
	if pi >= 0 {
		liveNotPrev--
	}
	if liveNotPrev == 0 {
		return prev
	}
	k := s.rng.IntN(liveNotPrev)
	if pi >= 0 && k >= pi {
		k++
	}
	return nbs[k]
}

// applyAd lets node v react to an arriving ad: cache it when interesting,
// and resolve a version gap by fetching the source's current full ad.
func (s *Scheme) applyAd(t sim.Clock, v overlay.NodeID, snap *adSnapshot, kind adKind, targeting content.ClassSet, dkey uint64, dseq *uint32) {
	if !s.cacheEligible(v) || !s.groupInterests(v).Intersects(targeting) {
		return
	}
	if s.store(v, snap, kind, t, false) == storedGap {
		s.fetchFull(t, v, snap.src, dkey, dseq)
	}
}

// fetchFull resolves a version gap — v's copy of src's ad is too old to
// patch — by fetching the source's current full ad directly (a control
// request plus a full-ad reply; the source is alive: it just sent an ad).
// Either leg of the fetch can be lost; the gap then persists until the next
// ad (or the next gap) retriggers it.
func (s *Scheme) fetchFull(t sim.Clock, v, src overlay.NodeID, dkey uint64, dseq *uint32) {
	cur := s.publishedSnapshot(src)
	if cur == nil {
		return
	}
	s.sys.Account(t, metrics.MControl, sim.HeaderBytes)
	if !s.sys.Arrives(t, metrics.MControl, v, src, dkey, nextSeq(dseq)) {
		return // fetch request lost: the reply is never sent
	}
	s.sys.Account(t, metrics.MAdFull, cur.wireBytes(adFull))
	if !s.sys.Arrives(t, metrics.MAdFull, src, v, dkey, nextSeq(dseq)) {
		return // reply lost: v keeps its stale copy
	}
	s.store(v, cur, adFull, t, false)
}
