package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// idxSnap builds a snapshot whose filter holds the given keys. Tests keep
// keys class-scoped by convention (class c owns keys c*1000+1 …
// c*1000+999), mirroring the production invariant that an ad's filter only
// contains keywords of its topic classes. The snapshot is unslotted; churn
// helpers register it with a test adSlots when slotting is under test.
func idxSnap(src overlay.NodeID, version uint16, topics content.ClassSet, keys []uint64) *adSnapshot {
	f := bloom.NewDefault()
	for _, k := range keys {
		f.AddKey(k)
	}
	return &adSnapshot{src: src, version: version, topics: topics, filter: f, fullWire: f.WireSize(), patchWire: 8}
}

// randTopics draws 1–3 distinct classes.
func randTopics(rng *rand.Rand) content.ClassSet {
	var ts content.ClassSet
	for n := 1 + rng.IntN(3); n > 0; n-- {
		ts = ts.Add(content.Class(rng.IntN(content.NumClasses)))
	}
	return ts
}

// classKeys draws 1–4 keys from each of the topic classes' key ranges.
func classKeys(rng *rand.Rand, topics content.ClassSet) []uint64 {
	var keys []uint64
	for _, c := range topics.Classes() {
		for n := 1 + rng.IntN(4); n > 0; n-- {
			keys = append(keys, uint64(int(c)*1000+1+rng.IntN(999)))
		}
	}
	return keys
}

// churnStep applies one random mutation to node 0's cache, maintaining the version
// counter map. Freshly built snapshots register with slots three times out
// of four (when given), so slotted and unslotted (scalar-fallback) ads mix
// in every cache under test.
func churnStep(rng *rand.Rand, c *Scheme, slots *adSlots, vers map[overlay.NodeID]uint16, now sim.Clock) {
	src := overlay.NodeID(rng.IntN(120))
	mkSnap := func(version uint16, topics content.ClassSet) *adSnapshot {
		sn := idxSnap(src, version, topics, classKeys(rng, topics))
		if slots != nil && rng.IntN(4) != 0 {
			slots.register(sn)
		}
		return sn
	}
	switch rng.IntN(8) {
	case 0, 1, 2, 3: // full ad (insert or replace), sometimes with new topics
		vers[src]++
		c.store(0, mkSnap(vers[src], randTopics(rng)), adFull, now)
	case 4: // sequential patch with possibly different topics
		if cur := c.entry(0, src); cur != nil {
			vers[src] = cur.snap.version + 1
			c.store(0, mkSnap(vers[src], randTopics(rng)), adPatch, now)
		}
	case 5: // refresh
		if cur := c.entry(0, src); cur != nil {
			c.store(0, cur.snap, adRefresh, now)
		}
	case 6:
		c.drop(0, src)
	case 7:
		c.dropStale(0, now-400)
	}
}

// TestScanCacheMatchesLinearScan is the tentpole's exactness property:
// across random caches under churn, eviction, and a mixed slotted/unslotted
// ad population, the bit-sliced accumulator scan returns exactly the
// candidate set of the scalar reference walk — same members, same order.
func TestScanCacheMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 23))
	c := newCaches(120, 40)
	ns := &c.nodes[0]
	slots := &adSlots{}
	vers := make(map[overlay.NodeID]uint16)
	var qa queryAcc
	for i := 0; i < 4000; i++ {
		churnStep(rng, c, slots, vers, sim.Clock(i))
		if i%7 != 0 {
			continue
		}
		// A query over 1–2 classes, 1–3 terms each.
		qClasses := content.ClassSet(0).Add(content.Class(rng.IntN(content.NumClasses)))
		if rng.IntN(2) == 0 {
			qClasses = qClasses.Add(content.Class(rng.IntN(content.NumClasses)))
		}
		keys := classKeys(rng, qClasses)
		probes := bloom.AppendKeyProbes(nil, keys)

		qa.reset(slots, probes)
		got := ns.scanCache(&qa, minClock, math.MaxInt, nil)
		want := scanCacheReference(ns, probes)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: sliced scan %v != reference scan %v", i, got, want)
		}
	}
}

// TestServeAdsMatchesFifoWalk: the reply assembly enumerates exactly the
// snapshots the reference fifo walk with the same predicate would, in the
// same order, under every combination of interest sets, staleness
// cut-offs, probe filtering, requester exclusion and reply caps — with
// both the accumulator path (search pull) and the nil path (join pull).
func TestServeAdsMatchesFifoWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	c := newCaches(120, 40)
	ns := &c.nodes[0]
	slots := &adSlots{}
	vers := make(map[overlay.NodeID]uint16)
	var qacc queryAcc
	var buf []*adSnapshot
	for i := 0; i < 4000; i++ {
		churnStep(rng, c, slots, vers, sim.Clock(i))
		if i%5 != 0 {
			continue
		}
		interests := randTopics(rng)
		if rng.IntN(8) == 0 {
			interests = 0 // uninterested requester: empty reply
		}
		staleBefore := sim.Clock(i - rng.IntN(600))
		var probes []bloom.Probe
		var qa *queryAcc
		if rng.IntN(2) == 0 { // search-time pull; nil = join-time pull
			probes = bloom.AppendKeyProbes(nil, classKeys(rng, randTopics(rng)))
			qacc.reset(slots, probes)
			qa = &qacc
		}
		requester := overlay.NodeID(rng.IntN(120))
		max := 1 + rng.IntN(8)

		want := serveAdsReference(ns, interests, staleBefore, probes, requester, max)
		got := ns.serveAds(qa, buf[:0], interests, staleBefore, requester, max)
		buf = got
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: serveAds returned %d ads, fifo reference %d (interests=%b max=%d)", i, len(got), len(want), interests, max)
		}
	}
}

// TestDropStaleWatermarkGateEquivalence: gating the expiry sweep on the
// minSeen watermark (as Search does) never changes observable cache
// state versus sweeping unconditionally on every query.
func TestDropStaleWatermarkGateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	gated, ref := newCaches(60, 25), newCaches(60, 25)

	for i := 0; i < 3000; i++ {
		now := sim.Clock(i * 3)
		src := overlay.NodeID(rng.IntN(60))
		switch rng.IntN(4) {
		case 0, 1:
			sp := idxSnap(src, uint16(i), randTopics(rng), nil)
			gated.store(0, sp, adFull, now)
			ref.store(0, sp, adFull, now)
		case 2:
			gated.drop(0, src)
			ref.drop(0, src)
		case 3: // a search arrives: gated sweep vs unconditional sweep
			deadline := now - 200
			if gated.nodes[0].minSeen < deadline {
				gated.dropStale(0, deadline)
			}
			ref.dropStale(0, deadline)
			// Same entries (snapshot and freshness) in the same fifo order.
			if g, r := cacheEntries(&gated.nodes[0]), cacheEntries(&ref.nodes[0]); !slices.Equal(g, r) {
				t.Fatalf("step %d: caches diverged: %v vs %v", i, g, r)
			}
		}
	}
}

// TestHolderSlotStaysEightBytes: holder tables are the bulk of the index
// (2.75 M slots at mid), so the version stamp must not widen the slot.
func TestHolderSlotStaysEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(holderSlot{}); size != 8 {
		t.Fatalf("holderSlot is %d bytes, want 8", size)
	}
}

// TestHolderTabBasics pins the holder table's semantics against a map
// oracle: put/get/del round-trips, replacement, growth past many inserts,
// shrinking as the population drains, and backward-shift deletion keeping
// every surviving key reachable.
func TestHolderTabBasics(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 4))
	var tab holderTab
	ref := make(map[overlay.NodeID]uint32)
	check := func(where string, i int) {
		t.Helper()
		for k, want := range ref {
			if got, ok := tab.get(k); !ok || got != want {
				t.Fatalf("%s %d: get(%d) = (%d, %v), want %d", where, i, k, got, ok, want)
			}
			if ver := tab.slots[tab.find(k)].ver; ver != ^uint16(want) {
				t.Fatalf("%s %d: slot of %d is stamped %d, want %d", where, i, k, ver, ^uint16(want))
			}
		}
	}
	shrinks := 0
	for i := 0; i < 40000; i++ {
		v := overlay.NodeID(rng.IntN(300))
		// Puts outnumber deletes two to one, then deletes win seven to one:
		// the table grows through several doublings and shrinks back as the
		// population drains, over and over.
		del := rng.IntN(3) == 2
		if i/5000%2 == 1 {
			del = rng.IntN(8) != 0
		}
		before := len(tab.slots)
		if !del {
			tab.put(v, uint32(i), ^uint16(i))
			ref[v] = uint32(i)
		} else {
			got, ok := tab.del(v)
			want, had := ref[v]
			delete(ref, v)
			if ok != had || got != want {
				t.Fatalf("step %d: del(%d) = (%d, %v), want (%d, %v)", i, v, got, ok, want, had)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: table n=%d, reference %d", i, tab.n, len(ref))
		}
		if len(tab.slots) < 2*tab.n {
			t.Fatalf("step %d: %d slots for %d keys, over 50%% load", i, len(tab.slots), tab.n)
		}
		if len(tab.slots) < before {
			shrinks++
		}
		if i%500 == 0 {
			check("step", i)
		}
	}
	check("final", 0)
	if shrinks == 0 {
		t.Error("the table never shrank; the drain phases did not exercise del's resize")
	}
	if _, ok := tab.get(overlay.NodeID(301)); ok {
		t.Fatal("get of never-inserted key returned an entry")
	}
}

// TestHolderTabShrinkHysteresis: a source's holder set peaks after its
// full-ad flood and then drains, and the table must give the memory back —
// but a population hovering at a resize boundary must not thrash.
func TestHolderTabShrinkHysteresis(t *testing.T) {
	var tab holderTab
	for v := 0; v < 1000; v++ {
		tab.put(overlay.NodeID(v), uint32(v), 0)
	}
	peak := len(tab.slots)
	for v := 50; v < 1000; v++ {
		tab.del(overlay.NodeID(v))
	}
	if len(tab.slots) > 256 {
		t.Errorf("drained 1000 → 50 holders: %d slots (peak %d), want ≤ 256", len(tab.slots), peak)
	}
	for v := 0; v < 50; v++ {
		if got, ok := tab.get(overlay.NodeID(v)); !ok || got != uint32(v) {
			t.Fatalf("holder %d lost across shrinks: (%d, %v)", v, got, ok)
		}
	}
	for v := 0; v < 50; v++ {
		tab.del(overlay.NodeID(v))
	}
	if len(tab.slots) != holderMinSlots {
		t.Errorf("empty table keeps %d slots, want the %d-slot floor", len(tab.slots), holderMinSlots)
	}

	// At each boundary — one below the grow threshold, and the shrink
	// threshold — alternating put/del must not resize at all.
	for _, n := range []int{127, 32} {
		var tab holderTab
		for v := 0; v < 200; v++ {
			tab.put(overlay.NodeID(v), 0, 0)
		}
		for v := 199; v >= n; v-- {
			tab.del(overlay.NodeID(v))
		}
		edge := overlay.NodeID(n)
		if a := testing.AllocsPerRun(100, func() {
			tab.put(edge, 0, 0)
			tab.del(edge)
			tab.del(edge - 1)
			tab.put(edge-1, 0, 0)
		}); a != 0 {
			t.Errorf("alternating put/del around %d holders (%d slots) allocates %.1f times, want 0", n, len(tab.slots), a)
		}
	}
}

// TestAdSlotsRegister: same-geometry filters share one group, new
// geometries open new groups up to maxSigGroups, and overflow geometries
// stay unslotted (the scalar-fallback path).
func TestAdSlotsRegister(t *testing.T) {
	slots := &adSlots{}
	a := &adSnapshot{filter: bloom.NewDefault()}
	b := &adSnapshot{filter: bloom.NewDefault()}
	slots.register(a)
	slots.register(b)
	if a.sigSlot != 1 || b.sigSlot != 2 || a.sigGroup != b.sigGroup {
		t.Fatalf("same geometry split groups: a=(%d,%d) b=(%d,%d)", a.sigGroup, a.sigSlot, b.sigGroup, b.sigSlot)
	}
	for m := 0; m < maxSigGroups-1; m++ {
		sn := &adSnapshot{filter: bloom.New(64+m+1, 2)}
		slots.register(sn)
		if sn.sigSlot != 1 {
			t.Fatalf("new geometry %d not slotted at lane 1", m)
		}
	}
	over := &adSnapshot{filter: bloom.New(8192, 3)}
	slots.register(over)
	if over.sigSlot != 0 {
		t.Fatalf("geometry beyond maxSigGroups got slot %d, want unslotted", over.sigSlot)
	}
	if len(slots.groups) != maxSigGroups {
		t.Fatalf("%d groups, want %d", len(slots.groups), maxSigGroups)
	}
}

// TestStaleWindowRegression pins the staleness window semantics end to
// end: an ad last refreshed at time T is served by Search up to and
// including T + StaleFactor×RefreshPeriodSec seconds and expired from the
// cache strictly after.
func TestStaleWindowRegression(t *testing.T) {
	s, _ := attach(t, FLD)
	p := overlay.NodeID(1)
	// A reserve node that never joined: no real published ad of its can
	// reach p's cache through phase-2 pulls and resurrect the entry.
	src := overlay.NodeID(s.sys.NumNodes() - 1)
	window := sim.Clock(s.cfg.StaleFactor*s.cfg.RefreshPeriodSec) * 1000

	const T = sim.Clock(1_000_000)
	topics := content.ClassSet(0).Add(0)
	sp := idxSnap(src, 1000, topics, []uint64{42})
	s.store(p, sp, adFull, T)

	search := func(at sim.Clock) {
		t.Helper()
		ev := &trace.Event{Kind: trace.Query, Node: p, Time: at, Terms: []content.Keyword{1}}
		s.Search(ev)
	}

	// At deadline == T the entry is not yet stale (strict <).
	search(T + window)
	if s.entry(p, src) == nil {
		t.Fatalf("entry expired at exactly window boundary; want survival (lastSeen < deadline is strict)")
	}
	// One millisecond later it is.
	search(T + window + 1)
	if s.entry(p, src) != nil {
		t.Fatalf("entry still cached %d ms past its staleness window", 1)
	}
}
