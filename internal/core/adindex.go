package core

import (
	"fmt"
	"math"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Replay-plane acceleration over the ads caches (see DESIGN.md §12).
//
// Every published adSnapshot is immutable and shared by pointer across all
// caches, so its Bloom signature is sliced ONCE, globally, at publication:
// the Scheme keeps one bit-sliced column matrix per filter geometry
// (adSlots), and each snapshot records which matrix (sigGroup) and which
// column lane (sigSlot) holds its signature. A query computes every block's
// match word once per geometry group it touches, and then resolves "does
// this cached ad match every term" to a single bit test (queryAcc) — the
// word-parallel replacement for the per-ad ContainsAllProbes walk.
//
// Cache membership is indexed source-major (holderTab): an ad delivery is
// one source reaching many nodes, so "does v cache src's ad" is answered by
// src's own small table of holders, which stays cache-resident for the whole
// delivery, and a refresh or patch flood visits exactly the nodes that hold
// the ad; the slot carries the entry's version and freshness stamps, so a
// refresh of the cached version writes that table alone. Each node keeps its
// snapshots in an index-addressed slab with a fifo of slab indices.
//
// Concurrency: one goroutine writes all of it — adSlots in publishWith,
// holder tables and per-node state in searches and deliveries — so none of
// it is locked. Serving readers read the matrices, caches and holder stamps
// only while the serving gate holds that writer off (see nodeState); a
// tick's reach, which runs with the gate open, writes none of them.

// maxClock is the highest representable virtual time; the watermark of an
// empty cache.
const maxClock = sim.Clock(1)<<62 - 1

// warmUpTime is when Attach installs the warm-up ads: no stamp is earlier.
const warmUpTime = sim.Clock(-1)

const maxHorizonSec = math.MaxInt32 / 2 / 1000

// checkHorizon rejects, as New rejects a bad config, a load horizon whose
// stamps could overflow holderSlot.seen: half its range is left for stamps
// a search dates past the horizon (reply arrivals, retries).
func checkHorizon(sec int) {
	if sec > maxHorizonSec {
		panic(fmt.Sprintf("core: a %d s load horizon overflows the cache stamps (max %d s)", sec, maxHorizonSec))
	}
}

// maxSigGroups bounds the number of distinct filter geometries the global
// signature index slices. The variable-sizing pool produces 7 lengths and
// fixed sizing exactly one, so the bound is never hit in practice; a
// geometry beyond it simply stays unslotted and matches via the scalar
// fallback (the "odd geometry" path).
const maxSigGroups = 16

// adSlots is the global signature index: one bit-sliced matrix per filter
// geometry, growing append-only as snapshots are published.
type adSlots struct {
	groups []*bloom.Sliced
}

// register slices snap's filter into the matrix of its geometry, creating
// the group on first sight. Snapshots beyond maxSigGroups geometries stay
// unslotted (sigSlot 0) and are matched scalar.
func (s *adSlots) register(snap *adSnapshot) {
	m, k := snap.filter.Bits(), snap.filter.Hashes()
	for gi, g := range s.groups {
		gm, gk := g.Geometry()
		if gm == m && gk == k {
			snap.sigGroup, snap.sigSlot = uint8(gi), int32(g.Add(snap.filter))+1
			return
		}
	}
	if len(s.groups) >= maxSigGroups {
		return
	}
	g := bloom.NewSliced(m, k)
	snap.sigGroup, snap.sigSlot = uint8(len(s.groups)), int32(g.Add(snap.filter))+1
	s.groups = append(s.groups, g)
}

// queryAcc is one query's match accumulator over the global signature
// index. The first test against a geometry group derives the group's probe
// positions and every block's match word in one tile-major pass
// (Sliced.AppendMatch); each later test in the group is one word load and
// a bit test. The pass costs positions × ⌈blocks/8⌉ cache lines however
// few of the group's slots the query tests — cheaper than matching only
// the touched blocks once a cache spans more than an eighth of them, as
// warm caches do (DESIGN.md §12). Buffers persist across queries in the
// search scratch; reset truncates them, so the steady state allocates
// nothing.
type queryAcc struct {
	slots  *adSlots
	probes []bloom.Probe
	pos    []uint32               // probe positions of the group last filled
	accs   [maxSigGroups][]uint64 // per group: every block's match word, empty until first use
}

// reset rebinds the accumulator to a query's probes, invalidating all
// computed match words.
func (qa *queryAcc) reset(slots *adSlots, probes []bloom.Probe) {
	qa.slots, qa.probes = slots, probes
	for g := range qa.accs {
		qa.accs[g] = qa.accs[g][:0]
	}
}

// matches reports whether snap's filter passes every probe of the query:
// the sliced bit test for slotted snapshots, the scalar probe walk for
// unslotted ones. The two agree exactly — the matrix columns are the
// filter's own bits and the positions are the same (h1+i·h2) mod m
// sequence ContainsAllProbes walks.
func (qa *queryAcc) matches(snap *adSnapshot) bool {
	slot := int(snap.sigSlot) - 1
	if slot < 0 || qa.slots == nil {
		return snap.filter.ContainsAllProbes(qa.probes)
	}
	acc := qa.accs[snap.sigGroup]
	if slot>>6 >= len(acc) {
		acc = qa.fill(int(snap.sigGroup))
	}
	return acc[slot>>6]>>(uint(slot)&63)&1 != 0
}

// fill computes group g's match words for the query's probes.
func (qa *queryAcc) fill(g int) []uint64 {
	sl := qa.slots.groups[g]
	qa.pos = sl.AppendPositions(qa.pos[:0], qa.probes)
	qa.accs[g] = sl.AppendMatch(qa.accs[g][:0], qa.pos)
	return qa.accs[g]
}

// holderTab is one source's side of the ads-cache index: the nodes caching
// that source's ad, each mapped to the entry's index in the holder's slab.
// It is a flat open-addressed table — power-of-two sizing, multiplicative
// hashing, linear probing, backward-shift deletion (no tombstones) — and
// the zero value is a valid empty table.
//
// A source's holder set peaks right after its full-ad flood and is then
// drained by the holders' FIFO evictions, so a grow-only table would pin
// every source at its high-water mark: put doubles past 75% load, del halves
// once the table is under a quarter full (never below holderMinSlots). Either
// resize leaves the load a factor of 1.5 from the other threshold, so a
// population hovering at a boundary does not resize back and forth.
type holderTab struct {
	slots []holderSlot
	n     int
}

// holderSlot is one table slot, 12 bytes. key is node+1 so 0 marks an empty
// slot for any valid NodeID; idx is the entry's index in the holder's slab
// (≤ maxCacheCapacity); ver is the version of the snapshot cached there,
// restamped wherever that snapshot is set (store, merge), so a delivery
// learns "already at this version" without reading the slab; seen is when
// the entry was last seen, in milliseconds (bind bounds the horizon).
type holderSlot struct {
	key      uint32
	idx, ver uint16
	seen     int32
}

const holderMinSlots = 16

// maxCacheCapacity keeps slab indices in holderSlot.idx (a slab peaks at capacity + 1 entries).
const maxCacheCapacity = 1<<16 - 2

func holderHash(key, mask uint32) uint32 { return (key * 2654435761) & mask }

// find returns the index of node v's slot, or -1 if v does not hold the ad.
func (t *holderTab) find(v overlay.NodeID) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	key := uint32(v) + 1
	for i := holderHash(key, mask); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return int(i)
		case 0:
			return -1
		}
	}
}

// get returns the slab index of node v's entry, if v holds the ad.
func (t *holderTab) get(v overlay.NodeID) (uint32, bool) {
	if i := t.find(v); i >= 0 {
		return uint32(t.slots[i].idx), true
	}
	return 0, false
}

// put records (or replaces) node v's slot: slab index idx, version ver, stamp seen.
func (t *holderTab) put(v overlay.NodeID, idx uint32, ver uint16, seen sim.Clock) {
	t.reserve(t.n + 1)
	mask := uint32(len(t.slots) - 1)
	key := uint32(v) + 1
	for i := holderHash(key, mask); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == 0 {
			t.n++
		} else if s.key != key {
			continue
		}
		*s = holderSlot{key, uint16(idx), ver, int32(seen)}
		return
	}
}

// reserve grows the table, in one step, to the size n one-by-one puts would
// leave it at (≤ 75 % load): a full ad sizes its source's table once.
func (t *holderTab) reserve(n int) {
	size := max(holderMinSlots, len(t.slots))
	for 4*n > 3*size {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// del removes node v and returns the slab index it held, backward-shifting
// the displaced run so lookups never need tombstones.
func (t *holderTab) del(v overlay.NodeID) (uint32, bool) {
	at := t.find(v)
	if at < 0 {
		return 0, false
	}
	i, mask := uint32(at), uint32(len(t.slots)-1)
	idx := uint32(t.slots[i].idx)
	t.n--
	// Backward shift: slide later run members whose home position reaches
	// back to (or past) the vacated slot, preserving probe invariants.
	j := i
	for {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.key == 0 {
			break
		}
		if h := holderHash(s.key, mask); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = holderSlot{}
	if 4*t.n < len(t.slots) && len(t.slots) > holderMinSlots {
		t.resize(len(t.slots) / 2)
	}
	return idx, true
}

func (t *holderTab) resize(size int) {
	old := t.slots
	t.slots, t.n = make([]holderSlot, size), 0
	for _, s := range old {
		if s.key != 0 {
			t.put(overlay.NodeID(s.key-1), uint32(s.idx), s.ver, sim.Clock(s.seen))
		}
	}
}

// lastSeen returns the stamp of node v's entry for src's ad, which v holds.
func (s *Scheme) lastSeen(v, src overlay.NodeID) sim.Clock {
	h := &s.holders[src]
	return sim.Clock(h.slots[h.find(v)].seen)
}

// fresh reports whether node v's entry for src was last seen at or after
// staleBefore. No stamp predates warm-up, so while the deadline does not
// pass it every entry is fresh and the holder lookup is skipped.
func (s *Scheme) fresh(v, src overlay.NodeID, staleBefore sim.Clock) bool {
	return staleBefore <= warmUpTime || s.lastSeen(v, src) >= staleBefore
}

// scanCache appends the sources of node v's cached ads last seen at or
// after staleBefore whose filters pass every query probe, in fifo
// (insertion) order — phase 1's candidate scan — and stops after limit
// matches. Search passes no limit (math.MaxInt) because it ranks every
// match by round-trip time before confirming; SearchRO passes MaxConfirms
// because it confirms in cache order, so nothing past that match would be
// tried.
func (s *Scheme) scanCache(v overlay.NodeID, qa *queryAcc, staleBefore sim.Clock, limit int, out []overlay.NodeID) []overlay.NodeID {
	ns, n := &s.nodes[v], 0
	for _, i := range ns.live() {
		if n >= limit {
			break
		}
		if e := ns.slab[i]; qa.matches(e) && s.fresh(v, e.src, staleBefore) {
			out = append(out, e.src)
			n++
		}
	}
	return out
}

// serveAds appends up to max snapshots cached at node v whose topics
// intersect interests, in fifo (insertion) order, skipping entries staler
// than staleBefore, the requester's own ad, and — on search-time pulls
// (qa != nil) — ads failing the query probes. Insertion order matters:
// under MaxAdsPerReply the subset offered must not depend on anything but
// replay state, or two replays of one run diverge.
func (s *Scheme) serveAds(v overlay.NodeID, qa *queryAcc, buf []*adSnapshot, interests content.ClassSet, staleBefore sim.Clock, requester overlay.NodeID, max int) []*adSnapshot {
	ns := &s.nodes[v]
	for _, i := range ns.live() {
		if len(buf) >= max {
			break
		}
		e := ns.slab[i]
		if !e.topics.Intersects(interests) || e.src == requester {
			continue
		}
		if qa != nil && !qa.matches(e) {
			continue
		}
		if s.fresh(v, e.src, staleBefore) {
			buf = append(buf, e)
		}
	}
	return buf
}
