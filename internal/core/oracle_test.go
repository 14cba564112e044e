package core

import (
	"fmt"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Shared straight-line reference implementations ("oracles") of the cache
// scans, used by the index/churn/store property tests. Each is the
// specification the optimised path must match exactly — a plain fifo walk
// with scalar Bloom probing, no signature index, no accumulator.

// newCaches returns a bare Scheme over n nodes — the ads caches and their
// holder index, no system attached — for tests that drive the cache
// operations directly.
func newCaches(n, capacity int) *Scheme {
	s := &Scheme{
		cfg:     Config{CacheCapacity: capacity},
		nodes:   make([]nodeState, n),
		holders: make([]holderTab, n),
	}
	for v := range s.nodes {
		s.nodes[v].minSeen = maxClock
	}
	return s
}

// cacheEntry is one cache entry as the tests read it: the slab's snapshot
// and the freshness stamp its holder slot carries.
type cacheEntry struct {
	snap     *adSnapshot
	lastSeen sim.Clock
}

// entry returns a copy of node v's cache entry for src, resolved through
// the holder index, or nil — every test reads stamps through it.
func (s *Scheme) entry(v, src overlay.NodeID) *cacheEntry {
	h := &s.holders[src]
	if i := h.find(v); i >= 0 {
		return &cacheEntry{s.nodes[v].slab[h.slots[i].idx], sim.Clock(h.slots[i].seen)}
	}
	return nil
}

// ageHolder rewinds node v's cached copy of src's ad by back versions, as
// if v had missed that many updates, restamping the holder slot the way
// every production write of the snapshot does.
func (s *Scheme) ageHolder(v, src overlay.NodeID, back uint16) {
	old := *s.entry(v, src).snap
	old.version -= back
	s.recache(v, &old)
}

// recache points node v's entry for snap's source at snap, restamping the
// holder slot's version as every production write does. It allocates
// nothing.
func (s *Scheme) recache(v overlay.NodeID, snap *adSnapshot) {
	h := &s.holders[snap.src]
	sl := &h.slots[h.find(v)]
	s.nodes[v].slab[sl.idx], sl.ver = snap, snap.version
}

// cacheEntries returns node v's cache entries in fifo (insertion) order —
// the plain list the reference scans walk.
func cacheEntries(s *Scheme, v overlay.NodeID) []cacheEntry {
	var out []cacheEntry
	for _, i := range s.nodes[v].live() {
		out = append(out, *s.entry(v, s.nodes[v].slab[i].src))
	}
	return out
}

// scanCacheReference is the specification of phase 1's cache lookup: every
// source cached at node v, last seen at or after staleBefore, whose filter
// passes all probes, in fifo (insertion) order — the same candidates in the
// same order scanCache must produce.
func scanCacheReference(s *Scheme, v overlay.NodeID, staleBefore sim.Clock, probes []bloom.Probe) []overlay.NodeID {
	var out []overlay.NodeID
	for _, e := range cacheEntries(s, v) {
		if e.lastSeen >= staleBefore && e.snap.filter.ContainsAllProbes(probes) {
			out = append(out, e.snap.src)
		}
	}
	return out
}

// serveAdsReference is the specification of serveAds: walk the fifo in
// insertion order and offer every fresh, interest-matching, probe-passing
// entry except the requester's own, up to max. probes == nil is a
// join-time pull (no probe filtering).
func serveAdsReference(s *Scheme, v overlay.NodeID, interests content.ClassSet, staleBefore sim.Clock, probes []bloom.Probe, requester overlay.NodeID, max int) []*adSnapshot {
	var out []*adSnapshot
	for _, e := range cacheEntries(s, v) {
		if len(out) >= max {
			break
		}
		if !e.snap.topics.Intersects(interests) {
			continue
		}
		if e.lastSeen < staleBefore || e.snap.src == requester {
			continue
		}
		if probes != nil && !e.snap.filter.ContainsAllProbes(probes) {
			continue
		}
		out = append(out, e.snap)
	}
	return out
}

// cacheSources returns the cached sources in fifo order (test inspection).
func cacheSources(s *Scheme, v overlay.NodeID) []overlay.NodeID {
	var out []overlay.NodeID
	for _, e := range cacheEntries(s, v) {
		out = append(out, e.snap.src)
	}
	return out
}

// checkIndex verifies the ads-cache index invariants over every node of s:
// each node's fifo lists distinct live slab entries, every slab index
// is either live or on the free list, holders[src] maps the node back to
// exactly that entry, no holder slot exists beyond those (so none names a
// freed or foreign entry), and every slot is stamped with the version of the
// snapshot its entry caches and a freshness no lower than its node's minSeen
// watermark.
func checkIndex(s *Scheme) error {
	live := 0
	for v := range s.nodes {
		ns := &s.nodes[v]
		state := make([]byte, len(ns.slab)) // 1 = live, 2 = free
		for _, i := range ns.live() {
			if state[i] != 0 {
				return fmt.Errorf("node %d: slab index %d listed twice in fifo", v, i)
			}
			state[i] = 1
			e := ns.slab[i]
			if e == nil {
				return fmt.Errorf("node %d: fifo names freed slab index %d", v, i)
			}
			if got, held := s.holders[e.src].get(overlay.NodeID(v)); !held || got != i {
				return fmt.Errorf("node %d: holders[%d] = (%d, %v), want slab index %d", v, e.src, got, held, i)
			}
		}
		for _, i := range ns.free {
			if state[i] != 0 || ns.slab[i] != nil {
				return fmt.Errorf("node %d: free list names live or repeated slab index %d", v, i)
			}
			state[i] = 2
		}
		for i, st := range state {
			if st == 0 {
				return fmt.Errorf("node %d: slab index %d is neither live nor free", v, i)
			}
		}
		live += len(ns.live())
	}
	held := 0
	for src := range s.holders {
		h := &s.holders[src]
		used := 0
		for _, sl := range h.slots {
			if sl.key == 0 {
				continue
			}
			used++
			ns := &s.nodes[sl.key-1]
			if int(sl.idx) >= len(ns.slab) || ns.slab[sl.idx] == nil || ns.slab[sl.idx].src != overlay.NodeID(src) {
				return fmt.Errorf("holders[%d]: slot for node %d names slab index %d, which does not cache that source", src, sl.key-1, sl.idx)
			}
			if cached := ns.slab[sl.idx].version; sl.ver != cached {
				return fmt.Errorf("holders[%d]: slot for node %d is stamped version %d, its entry caches version %d", src, sl.key-1, sl.ver, cached)
			}
			if seen := sim.Clock(sl.seen); seen < ns.minSeen {
				return fmt.Errorf("holders[%d]: slot for node %d was last seen at %d, below the node's watermark %d", src, sl.key-1, seen, ns.minSeen)
			}
		}
		if used != h.n {
			return fmt.Errorf("holders[%d]: %d occupied slots, n = %d", src, used, h.n)
		}
		held += h.n
	}
	if held != live {
		return fmt.Errorf("holder tables name %d entries, caches hold %d", held, live)
	}
	return nil
}
