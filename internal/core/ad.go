package core

import (
	"slices"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// adSnapshot is one published state of a node's ad (I, C, T, v). It is
// immutable after publication; caches across the whole overlay share the
// pointer. A patch ad with version v carries the changed-bit list from
// v-1; a recipient at v-1 swaps to this snapshot, which is bit-identical
// to applying that list.
type adSnapshot struct {
	src     overlay.NodeID
	version uint16
	topics  content.ClassSet
	filter  *bloom.Filter // immutable; never mutate after publish

	// Global signature-index coordinates (see adindex.go): sigSlot is the
	// 1-based lane in geometry group sigGroup's bit-sliced matrix, 0 for an
	// unslotted snapshot (odd geometry, or one built outside a Scheme — unit
	// tests construct such snapshots and take the scalar match path).
	sigGroup uint8
	sigSlot  int32

	fullWire  int // wire bytes of the full-ad content encoding
	patchWire int // wire bytes of the patch from the previous version
}

// nodeState is the per-node ASAP state: own publication and the ads cache.
//
// The cache is three index-addressed arrays and nothing else: slab holds
// the cached snapshots, free the recycled slab indices, and fifo[head:]
// the live indices in insertion order, so eviction pops in O(1) and the
// serving and search scans walk entries densely. Which node caches which
// source is answered by the scheme-wide source-major index (Scheme.holders,
// see adindex.go): holders[src] maps node → slab index, every live entry
// is named by exactly one holder slot, and that slot also carries the
// entry's version and freshness stamps, so a refresh writes the source's
// table and never the slab. Snapshot swaps happen in place through the
// index and never re-insert.
//
// One goroutine writes it: the replay's (or the serving plane's single
// writer), which runs every search, delivery, publish and churn callback
// one after another, so no field needs a lock. The serving plane's
// readers read published, slab, fifo and holder stamps concurrently, but
// only while its epoch gate (internal/serve) holds the writer off;
// delivery-path write sections are bracketed with beginApply/endApply (one
// scheme-level version bump per section) so a reader can assert the
// contract through Scheme.checkStable.
//
// The zero value is valid: the cache starts empty, and minSeen=0 makes
// the staleness gate conservative (dropStale runs and self-heals it).
type nodeState struct {
	published *adSnapshot
	slab      []*adSnapshot // cached snapshots, addressed by index
	free      []uint32      // recycled slab indices
	fifo      []uint32      // fifo[head:]: live slab indices, insertion order
	head      int           // evictions pop by advancing head
	classCnt  [content.NumClasses]int32
	dirty     bool      // own content changed since the last publish rebuild
	minSeen   sim.Clock // lower bound on the entries' holder stamps; staleness gate
}

// topicsFromCounts derives the node's current topic set T(a) = {t(d) | d ∈
// D_p} from its per-class document counts.
func (ns *nodeState) topicsFromCounts() content.ClassSet {
	var s content.ClassSet
	for c := 0; c < content.NumClasses; c++ {
		if ns.classCnt[c] > 0 {
			s = s.Add(content.Class(c))
		}
	}
	return s
}

// live returns the cached entries' slab indices in insertion order.
func (ns *nodeState) live() []uint32 { return ns.fifo[ns.head:] }

// insert places snap at the fifo's tail and returns its slab index.
//
// The first insertion carves the slab and the fifo for the node's whole
// lifetime: store brings the cache back to capacity before it returns, so
// at most capacity+1 entries are ever live at once, and slab, fifo and
// free list are the node's only cache allocations however much ad traffic
// passes through. Evictions eat the fifo from the front, so
// when its tail reaches the end of the backing array the live run is
// copied back down to the start instead of letting append reallocate; the
// one-eighth slack makes that a handful of index moves per insertion. A
// capacity raised between calls (unit tests do this) regrows both.
func (ns *nodeState) insert(snap *adSnapshot, capacity int) uint32 {
	var i uint32
	if k := len(ns.free); k > 0 {
		i = ns.free[k-1]
		ns.free = ns.free[:k-1]
	} else {
		if ns.slab == nil {
			ns.slab = make([]*adSnapshot, 0, capacity+1)
		}
		i = uint32(len(ns.slab))
		ns.slab = append(ns.slab, nil)
	}
	ns.slab[i] = snap
	if len(ns.fifo) == cap(ns.fifo) {
		live := ns.live()
		if ns.head == 0 {
			ns.fifo = make([]uint32, 0, max(capacity, len(live))+capacity/8+2)
		}
		ns.fifo, ns.head = append(ns.fifo[:0], live...), 0
	}
	ns.fifo = append(ns.fifo, i)
	return i
}

// storeOutcome reports what a cache store did, so the caller can account
// follow-up traffic (full-ad refetch after a version gap).
type storeOutcome uint8

const (
	storedOK      storeOutcome = iota // cached, updated, or refreshed
	storedIgnored                     // not interesting / unknown patch source
	storedGap                         // version gap: caller must fetch a full ad
)

// store merges an incoming ad into node v's cache. kind dictates
// semantics:
//
//   - full: cache or replace when the version is not older;
//   - patch: advance v-1 → v by snapshot swap; unknown source is ignored
//     (the node never cached the full ad the patch amends); an older
//     cached version is a gap;
//   - refresh: bump freshness; a version mismatch is a gap.
//
// capacity enforcement evicts the oldest-inserted entry (FIFO).
func (s *Scheme) store(v overlay.NodeID, snap *adSnapshot, kind adKind, now sim.Clock) storeOutcome {
	ns := &s.nodes[v]
	h := &s.holders[snap.src]
	if i := h.find(v); i >= 0 {
		return ns.merge(&h.slots[i], snap, kind, now)
	}
	if kind != adFull {
		return storedIgnored
	}
	h.put(v, ns.insert(snap, s.cfg.CacheCapacity), snap.version, now)
	ns.minSeen = min(ns.minSeen, now)
	for ; len(ns.live()) > s.cfg.CacheCapacity; ns.head++ {
		s.unhold(v, ns.fifo[ns.head]) // FIFO eviction
	}
	return storedOK
}

// merge applies an incoming ad to the entry ns caches for its source, named
// by holder slot sl, in place (a replacement keeps the entry's fifo
// position), and restamps the slot: the version follows every snapshot
// swap, and freshness moves unless the ad opens a gap.
func (ns *nodeState) merge(sl *holderSlot, snap *adSnapshot, kind adKind, now sim.Clock) storeOutcome {
	// Re-announcing the very snapshot cached (nearly every refresh): whatever
	// the kind, only freshness moves — and the shared snapshot is not read.
	if cur := &ns.slab[sl.idx]; *cur != snap {
		switch kind {
		case adFull:
			// A cached version that is newer (reordered delivery) is kept.
			if !newerVersion((*cur).version, snap.version) {
				*cur = snap
			}
		case adPatch:
			if (*cur).version+1 == snap.version {
				*cur = snap
			} else if newerVersion(snap.version, (*cur).version) {
				return storedGap
			}
		case adRefresh:
			if newerVersion(snap.version, (*cur).version) {
				return storedGap
			}
		}
		sl.ver = (*cur).version
	}
	// A pull dates its offers at their arrival, so a later delivery can move
	// a stamp back: the watermark follows it down.
	sl.seen, ns.minSeen = int32(now), min(ns.minSeen, now)
	return storedOK
}

// newerVersion reports whether a is strictly newer than b under 16-bit
// serial-number arithmetic (RFC 1982 style), so versions survive wrap.
func newerVersion(a, b uint16) bool {
	return a != b && int16(a-b) > 0
}

// unhold removes node v from the holder table of the source cached at v's
// slab index i and recycles the slot, dropping its snapshot reference so
// the slab does not pin dead ads for the GC. The caller takes i out of the
// fifo.
func (s *Scheme) unhold(v overlay.NodeID, i uint32) {
	ns := &s.nodes[v]
	s.holders[ns.slab[i].src].del(v)
	ns.slab[i] = nil
	ns.free = append(ns.free, i)
}

// drop removes src from node v's cache, closing the gap in the fifo so the
// insertion order of the rest is kept exactly (ads replies serve entries
// in fifo order). Dead-source eviction is rare enough that the linear scan
// does not matter.
func (s *Scheme) drop(v, src overlay.NodeID) {
	ns := &s.nodes[v]
	if i, held := s.holders[src].get(v); held {
		p := ns.head + slices.Index(ns.live(), i)
		ns.fifo = slices.Delete(ns.fifo, p, p+1)
		s.unhold(v, i)
	}
}

// dropStale removes node v's entries last seen before deadline and
// recomputes the minSeen watermark from the survivors, so Search can skip
// the sweep until an entry can actually expire. Called from searches only.
func (s *Scheme) dropStale(v overlay.NodeID, deadline sim.Clock) {
	ns := &s.nodes[v]
	minSeen := maxClock
	kept := ns.fifo[:ns.head]
	for _, i := range ns.live() {
		if seen := s.lastSeen(v, ns.slab[i].src); seen >= deadline {
			minSeen = min(minSeen, seen)
			kept = append(kept, i)
		} else {
			s.unhold(v, i)
		}
	}
	ns.fifo, ns.minSeen = kept, minSeen
}

// adKind discriminates the three ad types of §III-B.
type adKind uint8

const (
	adFull adKind = iota
	adPatch
	adRefresh
)

// class returns the message class ads of this kind are accounted under.
func (k adKind) class() metrics.MsgClass {
	switch k {
	case adFull:
		return metrics.MAdFull
	case adPatch:
		return metrics.MAdPatch
	default:
		return metrics.MAdRefresh
	}
}

// wireBytes returns the on-wire message size of this snapshot under the
// given ad kind.
func (s *adSnapshot) wireBytes(kind adKind) int {
	switch kind {
	case adFull:
		return sim.FullAdBytes(s.fullWire)
	case adPatch:
		return sim.PatchAdBytes(s.patchWire)
	default:
		return sim.RefreshAdBytes()
	}
}
