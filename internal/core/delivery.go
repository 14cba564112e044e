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

// deliveryKey names one ad delivery to the fault plane: (time, source)
// folded with (version, kind), which separates a refresh from the full ad
// that replaced it within the same second.
func deliveryKey(t sim.Clock, snap *adSnapshot, kind adKind) uint64 {
	return faults.Fold(faults.Key(int64(t), snap.src), uint64(snap.version)<<2|uint64(kind))
}

// deliver pushes one ad through the overlay under the configured
// forwarding algorithm, caching it at every reached node whose interests
// intersect targeting (the delivery topic set; normally the ad's own
// topics, widened for patches): a batch of one in the scheme's ad queue.
func (s *Scheme) deliver(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet) {
	s.adQ = append(s.adQ[:0], floodAd{snap, kind, targeting})
	s.deliverAll(t, s.adQ)
}

// deliverAll delivers ads published at one virtual time, in order — the one
// delivery path, flood or walk. Each chunk of at most maxFloodBatch ads is
// reached first, writing only the delivery scratch (floods in one traversal,
// walks one after another), then applied in batch order inside one write
// section. Under a fault plane a lost flood copy prunes that branch (the node
// may still be reached another way) and a lost walk copy kills the walker;
// senders pay for lost copies, so coverage degrades under loss, traffic not.
func (s *Scheme) deliverAll(t sim.Clock, ads []floodAd) {
	phase := obs.PDeliverFlood
	if s.cfg.Delivery != FLD {
		phase = obs.PDeliverWalk
	}
	for len(ads) > 0 {
		td := s.obs.Begin()
		n := min(len(ads), maxFloodBatch)
		if s.cfg.Delivery == FLD {
			s.reach(t, ads[:n])
		} else {
			n = s.walks(t, ads[:n])
		}
		s.beginApply()
		for i, ad := range ads[:n] {
			s.applyReach(t, i, ad)
		}
		s.flood.reset()
		s.endApply()
		s.obs.End(phase, td)
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

// floodScratch is every delivery's working set. Each mask holds one bit per
// source of the batch: whose flood has reached a node at all (seen), at the
// level being expanded (frontier), at the level after (next). frontier and
// next are indexed by node; seen by holder-slot key — node+1, seen[0] zero
// for good. order lists the reached nodes level by level in discovery order
// (a node once per level that brought it a new flood): the BFS queue, and
// the list reset clears by, so a delivery costs the nodes it touched. Walk i
// uses seen's bit i and appends its first visits to order, so a batch of
// walks lists each walk's visits in its own stretch. All masks are zero
// between deliveries.
type floodScratch struct {
	seen, frontier, next []uint64
	order                []overlay.NodeID
	pick                 []uint32              // one ad's recipients (full ad) or reached holder slots (refresh, patch)
	sent                 [maxFloodBatch]int    // copies each source's delivery put on the wire
	dkey                 [maxFloodBatch]uint64 // each ad's deliveryKey
	visits               [maxFloodBatch][2]int // each ad's stretch of order: all of it for a flood, its own for a walk
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
	for i := range ads {
		k.visits[i] = [2]int{0, n}
	}
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

// walks reaches a prefix of ads, one walk each, and returns its length: every
// ad up to the first whose visits could overflow order's capacity, which
// Attach sized for a flood batch, so a batch of warm-up walks never grows it.
// Warm-up deliveries (t < 0) invest the full per-topic budget to seed the
// caches; everything published mid-run is an update of already-seeded state
// and spends a fraction of it.
func (s *Scheme) walks(t sim.Clock, ads []floodAd) int {
	k := &s.flood
	for i, ad := range ads {
		budget := max(1, ad.targeting.Count()) * s.cfg.BudgetUnit
		if t >= 0 {
			budget = max(1, budget/s.cfg.UpdateBudgetDiv)
		}
		starts := s.eligibleView(ad.snap.src) // GSA seeds every live neighbour
		if s.cfg.Delivery == RW {
			starts = s.walkStarts(ad.snap.src, s.cfg.Walkers)
		}
		// A walk lists its source and at most one node per copy it sends.
		if len(k.order)+min(len(s.nodes), 1+max(len(starts), budget)) > cap(k.order) {
			return i
		}
		s.walk(t, i, ad, starts, budget)
	}
	return len(ads)
}

// walk runs ad i's walkers from starts, a total message budget split evenly
// across them, and leaves its reach as a flood does — bit i of seen, the
// source and each first visit in order, copies in sent[i] — applying nothing.
// With no start it reaches nobody. A lost copy kills its walker; a free rider
// receives the ad but kills the walker. Walker w's copy at step s (the seed
// copy is step 0) is named (Fold(deliveryKey, w), edge, s), so the trajectory
// is a function of the rng and the plane alone; the plane is asked only while
// it can drop one.
func (s *Scheme) walk(t sim.Clock, i int, ad floodAd, starts []overlay.NodeID, budget int) {
	k := &s.flood
	src, class, sent, dkey := ad.snap.src, ad.kind.class(), 0, deliveryKey(t, ad.snap, ad.kind)
	k.sent[i], k.dkey[i], k.visits[i] = 0, dkey, [2]int{len(k.order), len(k.order)}
	if len(starts) == 0 {
		return
	}
	lossy, bit := s.sys.Faults().Active(), uint64(1)<<i
	seen := k.seen[1:]
	seen[src] |= bit
	k.order = append(k.order, src)
	perWalker := max(1, budget/len(starts))
	for w, start := range starts {
		wkey := faults.Fold(dkey, uint64(w))
		cur, prev := start, src
		for step := 0; step < perWalker; step++ {
			if step > 0 {
				if prev, cur = cur, s.pickNextHop(cur, prev, ad.targeting); cur < 0 {
					break
				}
			}
			sent++
			if lossy && s.sys.Lost(t, class, prev, cur, wkey, uint32(step)) {
				break
			}
			if seen[cur]&bit == 0 {
				seen[cur] |= bit
				k.order = append(k.order, cur)
			}
			if s.sys.FreeRider(cur) {
				break
			}
		}
	}
	k.sent[i], k.visits[i][1] = sent, len(k.order)
}

// applyReach books ad i of the delivery in flight and applies it once at each
// reached node that wants it (see pick): a full ad by store into a table
// reserved once, a refresh or patch through the holder slot, whose version
// stamp makes re-announcing the cached version (nearly every refresh) one
// blind lastSeen store. Reaching first and applying in pick's order are sound
// because applications commute and the reach reads none of their writes: a
// refresh or patch never inserts or evicts and touches only its own (node,
// source) entry, a gap fetch's legs are named by (deliveryKey, holder), a full
// ad lands in each node's fifo in batch order, and all accounting is integer
// adds at t. An ad that reached nobody (a walk with no start) sent nothing and
// applies nothing.
func (s *Scheme) applyReach(t sim.Clock, i int, ad floodAd) {
	k := &s.flood
	if k.visits[i][0] == k.visits[i][1] {
		return
	}
	snap, class := ad.snap, ad.kind.class()
	s.sys.Account(t, class, snap.wireBytes(ad.kind)*k.sent[i])
	s.obs.CountMsgN(int64(t), class, k.sent[i])
	h := &s.holders[snap.src]
	pick := s.pick(i, ad)
	if ad.kind == adFull {
		h.reserve(len(pick)) // never shrinks
		for _, v := range pick {
			s.store(overlay.NodeID(v), snap, adFull, t)
		}
		return
	}
	for _, j := range pick {
		sl := &h.slots[j]
		v := overlay.NodeID(sl.key) - 1
		if !s.wants(v, ad.targeting) {
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
			s.fetchFull(t, v, snap.src, k.dkey[i])
		}
	}
}

// pick lists in the scratch where ad i of the delivery in flight reached, but
// the source. For a refresh or patch, which acts only where the ad is cached,
// that is the holder slots, found by a branch-free scan of the source's table
// (key 0, an empty slot, is never reached); applyReach tests wants per slot.
// For a full ad it is the nodes of its stretch of order that want it, in
// order, each once: consuming its bit skips a node a flood listed twice.
func (s *Scheme) pick(i int, ad floodAd) []uint32 {
	k, h := &s.flood, &s.holders[ad.snap.src]
	visits := k.order[k.visits[i][0]:k.visits[i][1]]
	if need := max(len(h.slots), len(visits)) + 1; len(k.pick) < need {
		k.pick = make([]uint32, 2*need)
	}
	pick, n := k.pick, 0
	seen, bit := k.seen[1:], uint64(1)<<i
	seen[ad.snap.src] &^= bit
	if ad.kind != adFull {
		for j, sl := range h.slots {
			pick[n] = uint32(j)
			n += int(k.seen[sl.key] >> i & 1)
		}
		return pick[:n]
	}
	for _, v := range visits {
		if seen[v]&bit == 0 {
			continue
		}
		seen[v] &^= bit
		if s.wants(v, ad.targeting) {
			pick[n], n = uint32(v), n+1
		}
	}
	return pick[:n]
}

// wants reports whether v caches an ad targeting these topics: it may cache
// ads and its (group) interests meet them. Interest drift and hierarchy
// changes orphan holders, so a reached holder is asked too.
func (s *Scheme) wants(v overlay.NodeID, targeting content.ClassSet) bool {
	return s.cacheEligible(v) && s.groupInterests(v).Intersects(targeting)
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

// fetchFull resolves a version gap — v's copy of src's ad is too old to
// patch — by fetching the source's current full ad directly (a control
// request plus a full-ad reply; the source is alive: it just sent an ad).
// Either leg of the fetch can be lost; the gap then persists until the next
// ad (or the next gap) retriggers it.
func (s *Scheme) fetchFull(t sim.Clock, v, src overlay.NodeID, dkey uint64) {
	cur := s.publishedSnapshot(src)
	if cur == nil {
		return
	}
	s.sys.Account(t, metrics.MControl, sim.HeaderBytes)
	if !s.sys.Arrives(t, metrics.MControl, v, src, dkey, 0) {
		return // fetch request lost: the reply is never sent
	}
	s.sys.Account(t, metrics.MAdFull, cur.wireBytes(adFull))
	if !s.sys.Arrives(t, metrics.MAdFull, src, v, dkey, 1) {
		return // reply lost: v keeps its stale copy
	}
	s.store(v, cur, adFull, t)
}
