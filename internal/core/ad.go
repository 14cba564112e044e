package core

import (
	"sync"

	"asap/internal/bloom"
	"asap/internal/content"
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

// cachedAd is one ads-cache entry: a snapshot pointer plus freshness.
type cachedAd struct {
	snap     *adSnapshot
	lastSeen sim.Clock
}

// nodeState is the per-node ASAP state: own publication and the ads cache.
//
// Two distinct race surfaces exist, and each gets its own mechanism:
//
//   - Search vs Search: the sharded dispatcher's lanes (sim/shard.go)
//     run the searches of one batch concurrently, and two of them can
//     touch the same nodeState (a neighbour serving ads while another
//     lane reads its cache). mu serialises these.
//   - Delivery vs Search: ad deliveries, publishes and leave/join events
//     all run on the runner thread, and the runner finishes every query
//     batch (all lanes joined) before processing a state event — so
//     delivery-path writes NEVER overlap a search. The serving plane's
//     readers are kept off an applying writer the same way, by its epoch
//     gate (internal/serve). That single-writer guarantee lets
//     the delivery path skip mu entirely: the Scheme brackets each
//     delivery-path write section with beginApply/endApply (one scheme-
//     level version bump per delivery, not a lock per visited node) and
//     search-side sections validate the contract via Scheme.checkStable.
//
// Own content bookkeeping (classCnt, dirty) is only touched from
// runner-serialised callbacks and needs neither.
//
// The zero value is valid: the flat table starts empty, and minSeen=0
// makes the staleness gate conservative (dropStale runs and self-heals
// it).
type nodeState struct {
	mu        sync.Mutex
	published *adSnapshot
	tab       adTable          // src → cache entry (see adindex.go)
	free      []*cachedAd      // recycled cache entries (slab-backed)
	slabbed   bool             // the one-shot entry slab has been carved
	fifo      []overlay.NodeID // insertion order for eviction and serving
	classCnt  [content.NumClasses]int32
	dirty     bool      // own content changed since the last publish rebuild
	minSeen   sim.Clock // lower bound on cached lastSeen; staleness gate
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

// newEntry returns a zeroed cache entry, recycled or slab-allocated.
// Entries are table values by pointer so the delivery hot path can bump
// freshness (and swap snapshots) in place: one table lookup, no re-insert.
//
// The first insertion carves one slab for the node's whole lifetime:
// evictOver brings the cache back to capacity before store returns, so
// at most capacity+1 entries are ever live at once, and the slab plus
// its free list are the node's only two cache-entry allocations however
// much ad traffic passes through. A capacity raised between calls (unit
// tests do this) falls back to single-entry allocations once the slab is
// exhausted.
func (ns *nodeState) newEntry(capacity int) *cachedAd {
	if n := len(ns.free); n > 0 {
		e := ns.free[n-1]
		ns.free = ns.free[:n-1]
		return e
	}
	if ns.slabbed {
		return &cachedAd{}
	}
	ns.slabbed = true
	slab := make([]cachedAd, capacity+1)
	ns.free = make([]*cachedAd, 0, capacity+1)
	for i := len(slab) - 1; i >= 1; i-- {
		ns.free = append(ns.free, &slab[i])
	}
	return &slab[0]
}

// freeEntry recycles a removed cache entry, dropping its snapshot
// reference so the arena does not pin dead ads for the GC.
func (ns *nodeState) freeEntry(e *cachedAd) {
	*e = cachedAd{}
	ns.free = append(ns.free, e)
}

// storeOutcome reports what a cache store did, so the caller can account
// follow-up traffic (full-ad refetch after a version gap).
type storeOutcome uint8

const (
	storedOK      storeOutcome = iota // cached, updated, or refreshed
	storedIgnored                     // not interesting / unknown patch source
	storedGap                         // version gap: caller must fetch a full ad
)

// store merges an incoming ad into the cache under ns.mu. kind dictates
// semantics:
//
//   - full: cache or replace when the version is not older;
//   - patch: advance v-1 → v by snapshot swap; unknown source is ignored
//     (the node never cached the full ad the patch amends); an older
//     cached version is a gap;
//   - refresh: bump freshness; a version mismatch is a gap.
//
// capacity enforcement evicts the oldest-inserted entry (FIFO).
func (ns *nodeState) store(snap *adSnapshot, kind adKind, now sim.Clock, capacity int) storeOutcome {
	cur := ns.tab.get(snap.src)
	switch kind {
	case adFull:
		if cur != nil && newerVersion(cur.snap.version, snap.version) {
			// Cached version is newer (reordered delivery); keep it.
			cur.lastSeen = now
			return storedOK
		}
		if cur != nil {
			// Replacement keeps the entry's fifo position.
			cur.snap, cur.lastSeen = snap, now
			return storedOK
		}
		e := ns.newEntry(capacity)
		*e = cachedAd{snap: snap, lastSeen: now}
		ns.tab.put(snap.src, e)
		ns.fifo = append(ns.fifo, snap.src)
		if now < ns.minSeen {
			ns.minSeen = now
		}
		ns.evictOver(capacity)
		return storedOK
	case adPatch:
		if cur == nil {
			return storedIgnored
		}
		if cur.snap.version+1 == snap.version {
			cur.snap, cur.lastSeen = snap, now
			return storedOK
		}
		if newerVersion(snap.version, cur.snap.version) {
			return storedGap
		}
		cur.lastSeen = now
		return storedOK
	case adRefresh:
		if cur == nil {
			return storedIgnored
		}
		if cur.snap.version == snap.version {
			cur.lastSeen = now
			return storedOK
		}
		if newerVersion(snap.version, cur.snap.version) {
			return storedGap
		}
		cur.lastSeen = now
		return storedOK
	}
	return storedIgnored
}

// newerVersion reports whether a is strictly newer than b under 16-bit
// serial-number arithmetic (RFC 1982 style), so versions survive wrap.
func newerVersion(a, b uint16) bool {
	return a != b && int16(a-b) > 0
}

// evictOver pops FIFO entries until the cache fits capacity.
func (ns *nodeState) evictOver(capacity int) {
	for ns.tab.n > capacity && len(ns.fifo) > 0 {
		victim := ns.fifo[0]
		ns.fifo = ns.fifo[1:]
		if e := ns.tab.del(victim); e != nil {
			ns.freeEntry(e)
		}
	}
}

// drop removes src from the cache and its insertion-order list, keeping
// fifo an exact mirror of the cached sources (ads replies serve entries in
// fifo order, so a stale fifo entry would change reply contents). Called
// under mu; dead-source eviction is rare enough that the linear scan does
// not matter.
func (ns *nodeState) drop(src overlay.NodeID) {
	e := ns.tab.del(src)
	if e == nil {
		return
	}
	ns.freeEntry(e)
	for i, x := range ns.fifo {
		if x == src {
			ns.fifo = append(ns.fifo[:i], ns.fifo[i+1:]...)
			break
		}
	}
}

// dropStale removes entries last seen before deadline and recomputes the
// minSeen watermark from the survivors, so Search can skip the sweep until
// an entry can actually expire. Called under mu.
func (ns *nodeState) dropStale(deadline sim.Clock) {
	if ns.tab.n == 0 {
		ns.minSeen = maxClock
		return
	}
	minSeen := maxClock
	kept := ns.fifo[:0]
	for _, src := range ns.fifo {
		e := ns.tab.get(src)
		if e == nil {
			continue
		}
		if e.lastSeen < deadline {
			ns.tab.del(src)
			ns.freeEntry(e)
		} else {
			if e.lastSeen < minSeen {
				minSeen = e.lastSeen
			}
			kept = append(kept, src)
		}
	}
	ns.fifo = kept
	ns.minSeen = minSeen
}

// adKind discriminates the three ad types of §III-B.
type adKind uint8

const (
	adFull adKind = iota
	adPatch
	adRefresh
)

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
