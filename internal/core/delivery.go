package core

import (
	"math/bits"
	"slices"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// nextSeq increments a local per-delivery message counter. A walker can
// cross one edge twice, so a walk copy (and a gap fetch a walk triggers) is
// named by the delivery key plus its — sequential, hence replay-stable —
// arrival order. Flood copies need no counter (reach).
func nextSeq(p *uint32) uint32 { *p++; return *p - 1 }

// deliveryKey names one ad delivery to the fault plane: (time, source)
// folded with (version, kind), which separates a refresh from the full ad
// that replaced it within the same second.
func deliveryKey(t sim.Clock, snap *adSnapshot, kind adKind) uint64 {
	return faults.Fold(faults.Key(int64(t), snap.src), uint64(snap.version)<<2|uint64(kind))
}

// deliver pushes one ad through the overlay under the configured
// forwarding algorithm, caching it at every reached node whose interests
// intersect targeting (the delivery topic set; normally the ad's own
// topics, widened for patches). Deliveries run on the runner thread only.
// Under a fault plane a lost flood copy prunes that branch (the node may
// still be reached another way) and a lost walk copy kills the walker;
// senders pay for lost copies, so coverage degrades under loss, traffic not.
func (s *Scheme) deliver(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet) {
	if s.cfg.Delivery == FLD {
		s.floodBatch(t, []floodAd{{snap, kind, targeting}})
		return
	}
	// One seqlock section brackets the whole delivery (every applyAd within
	// it included); searches cannot run concurrently with any of it.
	s.beginApply()
	defer s.endApply()
	td := s.obs.Begin()
	// Warm-up deliveries (t < 0) invest the full per-topic budget to
	// seed the caches; everything published mid-run is an update of
	// already-seeded state and spends a fraction of it.
	budget := max(1, targeting.Count()) * s.cfg.BudgetUnit
	if t >= 0 {
		budget = max(1, budget/s.cfg.UpdateBudgetDiv)
	}
	starts := s.eligibleView(snap.src) // GSA seeds every live neighbour
	if s.cfg.Delivery == RW {
		starts = s.walkStarts(snap.src, s.cfg.Walkers)
	}
	s.deliverWalk(t, snap, kind, targeting, starts, budget)
	s.obs.End(obs.PDeliverWalk, td)
}

// deliverAll delivers ads published at one virtual time, in order: floods
// in traversals of up to maxFloodBatch sources, walks one by one.
func (s *Scheme) deliverAll(t sim.Clock, ads []floodAd) {
	if s.cfg.Delivery != FLD {
		for _, ad := range ads {
			s.deliver(t, ad.snap, ad.kind, ad.targeting)
		}
		return
	}
	for len(ads) > 0 {
		n := min(len(ads), maxFloodBatch)
		s.floodBatch(t, ads[:n])
		ads = ads[n:]
	}
}

// walkStarts returns w walker start points: the source's live neighbours,
// cycled if w exceeds the neighbourhood. The result aliases s.wlkBuf and is
// valid until the next call. It copies out of the overlay's live view, never
// into it, so an eligibleView result a caller holds (the GSA seed path, across
// a whole delivery) survives — see TestWalkStartsLiveViewAliasingContract.
func (s *Scheme) walkStarts(src overlay.NodeID, w int) []overlay.NodeID {
	live := s.eligibleView(src)
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

// maxFloodBatch is the number of sources one flood traversal carries: one
// bit of a uint64 mask each.
const maxFloodBatch = 64

// floodAd is one ad of a flood batch.
type floodAd struct {
	snap      *adSnapshot
	kind      adKind
	targeting content.ClassSet
}

// floodScratch is the flood traversal's working set (runner thread only).
// Each mask holds one bit per source of the batch: whose flood has reached a
// node at all (seen), at the level being expanded (frontier), at the level
// after (next). frontier and next are indexed by node; seen by holder-slot
// key — node+1, seen[0] zero for good — so the holders pass tests an empty
// slot like any other. order lists the reached nodes level by level in
// discovery order (a node once per level that brought it a new flood): the
// BFS queue, and the list reset clears by, so a flood costs the nodes it
// touched, never the overlay's size. All masks are zero between floods.
type floodScratch struct {
	seen, frontier, next []uint64
	order                []overlay.NodeID
	pick                 []uint32              // nodes (full ad) or holder slots (refresh, patch) one ad applies to
	sent                 [maxFloodBatch]int    // copies each source's flood put on the wire
	dkey                 [maxFloodBatch]uint64 // each ad's deliveryKey
}

func (k *floodScratch) reset() {
	seen := k.seen[1:]
	for _, v := range k.order {
		seen[v], k.frontier[v] = 0, 0
	}
	k.order = k.order[:0]
}

// nonzero is 1 when x != 0 and 0 otherwise, without a branch.
func nonzero(x uint64) uint64 { return (x | -x) >> 63 }

// reach floods every ad in the batch at once — one level-synchronous
// traversal with TTL FloodTTL and duplicate suppression per source (a
// multi-source BFS carrying one bit per source, after Then et al., VLDB
// 2014) — and leaves reach in seen, copy counts in sent. Every edge is
// scanned once per level for the whole batch (fan). Free riders receive ads
// but never forward them. With one source order is exactly its BFS queue.
//
// A flood sends at most one copy per (ad, directed edge), so under a fault
// plane (deliveryKey, edge) names each copy with no arrival counter, and no
// drop decision depends on visit order or batch composition: a frontier word
// arrives minus its lost bits, and nb may still be reached another way.
func (s *Scheme) reach(t sim.Clock, ads []floodAd) {
	k := &s.flood
	lossy := s.sys.Faults().Active()
	seen, frontier, next := k.seen[1:], k.frontier, k.next
	order, n := k.order[:cap(k.order)], len(ads) // Attach left room for a batch of sources
	for i, ad := range ads {
		src := ad.snap.src
		k.sent[i], k.dkey[i] = 0, deliveryKey(t, ad.snap, ad.kind)
		seen[src] |= 1 << i
		frontier[src] |= 1 << i
		order[i] = src
	}
	for lo, hop := 0, 0; hop < s.cfg.FloodTTL && lo < n; hop++ {
		hi := n
		for _, v := range order[lo:hi] {
			f := frontier[v]
			frontier[v] = 0
			if s.sys.FreeRider(v) {
				continue
			}
			// The eligible view is pre-filtered (no per-edge Alive test), and
			// every copy is sent and counted, even to nodes that saw the ad.
			view := s.eligibleView(v)
			for m := f; m != 0; m &= m - 1 {
				k.sent[bits.TrailingZeros64(m)] += len(view)
			}
			if n+len(view) > len(order) {
				order = slices.Grow(order, len(view))
				order = order[:cap(order)]
			}
			if !lossy {
				n = fan(order, n, seen, next, view, f)
				continue
			}
			for j, nb := range view {
				g := f // minus the copies the plane loses, one per source bit
				for m := f; m != 0; m &= m - 1 {
					if i := bits.TrailingZeros64(m); s.sys.Lost(t, ads[i].kind.class(), v, nb, k.dkey[i], 0) {
						g &^= 1 << i
					}
				}
				n = fan(order, n, seen, next, view[j:j+1], g)
			}
		}
		for _, v := range order[hi:n] {
			seen[v] |= next[v]
		}
		// Every expanded node cleared its frontier word, so the old
		// frontier array is the next level's all-zero next array.
		lo, frontier, next = hi, next, frontier
	}
	k.frontier, k.next, k.order = frontier, next, order[:n]
}

// fan delivers frontier word f to every node of view and returns the new n.
// No branch depends on the data: each neighbour is written at order[n] (which
// must have room for all of view) and kept only if this copy is the level's
// first to bring it a flood it had not seen.
func fan(order []overlay.NodeID, n int, seen, next []uint64, view []overlay.NodeID, f uint64) int {
	for _, nb := range view {
		fresh, had := f&^seen[nb], next[nb]
		order[n] = nb
		n += int(nonzero(fresh) &^ nonzero(had))
		next[nb] = had | fresh
	}
	return n
}

// floodBatch delivers up to maxFloodBatch flood ads at one virtual time — the
// only flood delivery, with or without a fault plane: one traversal computes
// every source's reach and copy count, then each ad is booked and applied,
// source by source in batch order, to the nodes its own flood reached.
//
// Refresh and patch ads only act on nodes already caching the source's ad
// (store ignores them elsewhere), so they apply through one pass over the
// source's holder table. A full ad inserts, so it applies at every reached,
// eligible, interested node — in BFS order when it floods alone — into a
// table sized once. Traversing first, and the pass's slot order, are sound
// because applications commute: a refresh or patch never inserts or evicts
// and touches only its own (node, source) entry, a gap fetch re-stores into
// that entry and its legs are named by (deliveryKey, holder), the traversal
// reads none of it, a full ad lands in each node's fifo in batch order
// whatever else the batch carries, and all accounting is integer adds at t.
func (s *Scheme) floodBatch(t sim.Clock, ads []floodAd) {
	td := s.obs.Begin()
	s.beginApply()
	k := &s.flood
	s.reach(t, ads)
	for i, ad := range ads {
		snap, class := ad.snap, ad.kind.class()
		s.sys.Account(t, class, snap.wireBytes(ad.kind)*k.sent[i])
		s.obs.CountMsgN(int64(t), class, k.sent[i])
		h := &s.holders[snap.src]
		if need := max(len(h.slots), len(k.order)) + 1; len(k.pick) < need {
			k.pick = make([]uint32, 2*need)
		}
		pick, n := k.pick, 0
		if ad.kind == adFull {
			// Consuming the bit visits a node listed at several levels once,
			// and the source not at all.
			seen, bit := k.seen[1:], uint64(1)<<i
			seen[snap.src] &^= bit
			for _, v := range k.order {
				if seen[v]&bit != 0 {
					seen[v] &^= bit
					if s.cacheEligible(v) && s.groupInterests(v).Intersects(ad.targeting) {
						pick[n] = uint32(v)
						n++
					}
				}
			}
			h.reserve(n) // never shrinks
			for _, v := range pick[:n] {
				s.store(overlay.NodeID(v), snap, adFull, t, false)
			}
			continue
		}
		// Pick the reached holders' slots, again without a branch (tables are
		// a quarter full, so "is this slot occupied" is a coin the predictor
		// loses): the flood never reached key 0.
		for j, sl := range h.slots {
			pick[n] = uint32(j)
			n += int(k.seen[sl.key] >> i & 1)
		}
		// The slot names the holder's slab entry and the version cached
		// there, so the pass probes no table and — for the refresh that
		// re-announces that version, nearly all of them — reads no slab:
		// equal versions of one source only ever move freshness. A hierarchy
		// change or interest drift can orphan a holder, hence the tests. A gap
		// fetch re-stores into the existing entry: the table stays put.
		for _, j := range pick[:n] {
			sl := &h.slots[j]
			v := overlay.NodeID(sl.key) - 1
			if v == snap.src || !s.cacheEligible(v) || !s.groupInterests(v).Intersects(ad.targeting) {
				continue
			}
			e := &s.nodes[v].slab[sl.idx]
			if sl.ver == snap.version {
				e.lastSeen = t
				continue
			}
			out := e.merge(snap, ad.kind, t)
			sl.ver = e.snap.version
			if out == storedGap {
				var leg uint32 // request 0, reply 1
				s.fetchFull(t, v, snap.src, k.dkey[i], &leg)
			}
		}
	}
	k.reset()
	s.endApply()
	s.obs.End(obs.PDeliverFlood, td)
}

// deliverWalk forwards the ad along random walks from the given start
// nodes under a total message budget split evenly across walkers. Every
// visited node applies the ad (re-applications only bump freshness). A
// walker whose forwarded copy is lost dies on the spot, its remaining budget
// wasted. Every step happens at the same virtual time and senders pay for
// lost copies, so bytes and messages are booked once per delivery, and the
// plane is asked per copy only when it can drop one — as in reach.
func (s *Scheme) deliverWalk(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet, starts []overlay.NodeID, budget int) {
	if len(starts) == 0 {
		return
	}
	class, sent, dkey := kind.class(), 0, deliveryKey(t, snap, kind)
	lossy := s.sys.Faults().Active()
	var dseq uint32
	perWalker := max(1, budget/len(starts))
	for _, start := range starts {
		cur, prev := start, snap.src
		sent++ // source → start
		if lossy && s.sys.Lost(t, class, snap.src, cur, dkey, nextSeq(&dseq)) {
			continue // seed copy lost: this walker never starts
		}
		s.applyAd(t, cur, snap, kind, targeting, dkey, &dseq)
		if s.sys.FreeRider(cur) {
			continue // free riders kill walkers: received, never forwarded
		}
		for step := 1; step < perWalker; step++ {
			next := s.pickNextHop(cur, prev, targeting)
			if next < 0 {
				break
			}
			prev, cur = cur, next
			sent++
			if lossy && s.sys.Lost(t, class, prev, cur, dkey, nextSeq(&dseq)) {
				break // walker lost in transit
			}
			if cur != snap.src {
				s.applyAd(t, cur, snap, kind, targeting, dkey, &dseq)
			}
			if s.sys.FreeRider(cur) {
				break
			}
		}
	}
	s.sys.Account(t, class, snap.wireBytes(kind)*sent)
	s.obs.CountMsgN(int64(t), class, sent)
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

// applyAd lets node v react to an ad a walker brought: cache it when
// interesting, and resolve a version gap by fetching the source's current
// full ad.
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
