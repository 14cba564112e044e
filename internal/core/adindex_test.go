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
// candidate set of the scalar reference walk — same members, same order —
// with the staleness deadline off, at the warm-up floor, just past it, and
// inside the stamps' range. The clock starts at warm-up time, so the first
// stores carry warm-up stamps.
func TestScanCacheMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 23))
	c := newCaches(120, 40)
	slots := &adSlots{}
	vers := make(map[overlay.NodeID]uint16)
	var qa queryAcc
	for i := 0; i < 4000; i++ {
		now := warmUpTime + sim.Clock(i)
		churnStep(rng, c, slots, vers, now)
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
		for _, staleBefore := range []sim.Clock{minClock, warmUpTime, 0, now - sim.Clock(rng.IntN(600))} {
			got := c.scanCache(0, &qa, staleBefore, math.MaxInt, nil)
			want := scanCacheReference(c, 0, staleBefore, probes)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d, staleBefore %d: sliced scan %v != reference scan %v", i, staleBefore, got, want)
			}
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
	slots := &adSlots{}
	vers := make(map[overlay.NodeID]uint16)
	var qacc queryAcc
	var buf []*adSnapshot
	for i := 0; i < 4000; i++ {
		churnStep(rng, c, slots, vers, warmUpTime+sim.Clock(i))
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

		want := serveAdsReference(c, 0, interests, staleBefore, probes, requester, max)
		got := c.serveAds(0, qa, buf[:0], interests, staleBefore, requester, max)
		buf = got
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: serveAds returned %d ads, fifo reference %d (interests=%b max=%d)", i, len(got), len(want), interests, max)
		}
	}
}

// TestDropStaleWatermarkGateEquivalence: gating the expiry sweep on the
// minSeen watermark (as Search does) never changes observable cache
// state versus sweeping unconditionally on every query — also when stamps
// arrive out of order: a phase-2 pull stores each offer at its arrival
// time, later than now and in neighbour order, and a delivery at now may
// then land on an entry stamped later, moving its stamp back.
func TestDropStaleWatermarkGateEquivalence(t *testing.T) {
	// Few sources and a step that outruns the window let the pulls' later
	// stamps outlive every other entry, so a refresh lands below them all.
	for _, tc := range []struct{ sources, step int }{{60, 3}, {8, 50}} {
		rng := rand.New(rand.NewPCG(3, 9))
		gated, ref := newCaches(60, 25), newCaches(60, 25)
		both := func(sp *adSnapshot, kind adKind, at sim.Clock) {
			gated.store(0, sp, kind, at)
			ref.store(0, sp, kind, at)
		}
		lowered := 0
		for i := 0; i < 3000; i++ {
			now := sim.Clock(i * tc.step)
			src := overlay.NodeID(rng.IntN(tc.sources))
			cached := ref.entry(0, src)
			switch rng.IntN(6) {
			case 0, 1:
				both(idxSnap(src, uint16(i), randTopics(rng), nil), adFull, now)
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
				if g, r := cacheEntries(gated, 0), cacheEntries(ref, 0); !slices.Equal(g, r) {
					t.Fatalf("%d sources, step %d: caches diverged: %v vs %v", tc.sources, i, g, r)
				}
			case 4: // a pull's offer, dated at its arrival
				sp := idxSnap(src, uint16(i), randTopics(rng), nil)
				if cached != nil {
					sp = cached.snap
				}
				both(sp, adFull, now+sim.Clock(rng.IntN(1000)))
			case 5: // a refresh delivered now
				if cached != nil {
					if now < ref.nodes[0].minSeen {
						lowered++ // below every stamp the node holds
					}
					both(cached.snap, adRefresh, now)
				}
			}
		}
		if tc.sources == 8 && lowered == 0 {
			t.Error("no refresh moved a stamp below the watermark; the out-of-order regime was not exercised")
		}
	}
}

// TestCachedAdByteBudget: a cached ad costs one holder slot and one slab
// entry, 8.0 M of them at mid, so moving the freshness stamp into the slot
// must shrink the pair, not just move the bytes (it was 8 + 16 = 24 B).
func TestCachedAdByteBudget(t *testing.T) {
	var ns nodeState
	if size := unsafe.Sizeof(holderSlot{}) + unsafe.Sizeof(ns.slab[0]); size > 20 {
		t.Fatalf("a cached ad takes %d bytes (holder slot %d + slab entry %d), want ≤ 20",
			size, unsafe.Sizeof(holderSlot{}), unsafe.Sizeof(ns.slab[0]))
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
			if sl := tab.slots[tab.find(k)]; sl.ver != ^uint16(want) || sl.seen != int32(want) {
				t.Fatalf("%s %d: slot of %d is stamped (%d, %d), want (%d, %d)", where, i, k, sl.ver, sl.seen, ^uint16(want), want)
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
			tab.put(v, uint32(i), ^uint16(i), sim.Clock(i))
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
		if 4*tab.n > 3*len(tab.slots) {
			t.Fatalf("step %d: %d slots for %d keys, over 75%% load", i, len(tab.slots), tab.n)
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
		tab.put(overlay.NodeID(v), uint32(v), 0, 0)
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

	// At each boundary of a 512-slot table — full at ¾ load (384 holders,
	// the next put doubles), and at ¼ (128, the next del halves) — a
	// population oscillating by one resizes at most once, then never again.
	for _, b := range []struct {
		n  int
		up bool // the first step is a put
	}{{384, true}, {384, false}, {128, true}, {128, false}} {
		var tab holderTab
		for v := 0; v < 384; v++ {
			tab.put(overlay.NodeID(v), 0, 0, 0)
		}
		for v := 383; v >= b.n; v-- {
			tab.del(overlay.NodeID(v))
		}
		if len(tab.slots) != 512 {
			t.Fatalf("%d holders in %d slots, want 512", b.n, len(tab.slots))
		}
		edge := overlay.NodeID(b.n)
		if !b.up {
			edge--
		}
		step := func(i int) {
			if (i%2 == 0) == b.up {
				tab.put(edge, 0, 0, 0)
			} else {
				tab.del(edge)
			}
		}
		resizes, size := 0, len(tab.slots)
		for i := 0; i < 100; i++ {
			if step(i); len(tab.slots) != size {
				resizes, size = resizes+1, len(tab.slots)
			}
		}
		if resizes > 1 {
			t.Errorf("oscillating by one at %d holders (first step put: %v) resized %d times, want ≤ 1", b.n, b.up, resizes)
		}
		i := 0
		if a := testing.AllocsPerRun(100, func() { step(i); i++ }); a != 0 {
			t.Errorf("oscillating by one at %d holders (%d slots) allocates %.1f times, want 0", b.n, len(tab.slots), a)
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

// TestHorizonGuard: bind accepts every load horizon whose stamps fit the
// holder slot's int32 milliseconds, with half the range to spare for stamps
// dated past the horizon, and rejects the first that does not.
func TestHorizonGuard(t *testing.T) {
	checkHorizon(maxHorizonSec)
	last := 2 * sim.Clock(maxHorizonSec) * 1000
	if last > math.MaxInt32 {
		t.Fatalf("a %d s horizon's stamps reach %d ms, past int32", maxHorizonSec, last)
	}
	var tab holderTab
	tab.put(1, 0, 0, last)
	if got := sim.Clock(tab.slots[tab.find(1)].seen); got != last {
		t.Fatalf("stamp %d read back as %d", last, got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("a %d s horizon was accepted", maxHorizonSec+1)
		}
	}()
	checkHorizon(maxHorizonSec + 1)
}
