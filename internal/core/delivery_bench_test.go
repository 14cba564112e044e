package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// firstPublished returns the lowest-numbered node's published snapshot
// after warm-up.
func firstPublished(tb testing.TB, s *Scheme) *adSnapshot {
	tb.Helper()
	for v := 0; v < s.sys.NumNodes(); v++ {
		if snap := s.publishedSnapshot(overlay.NodeID(v)); snap != nil {
			return snap
		}
	}
	tb.Fatal("no node published an ad during warm-up")
	return nil
}

// publishedSources returns the k lowest-numbered live nodes with a published
// ad: a refresh-wheel slot of exactly k flooding sources.
func publishedSources(tb testing.TB, s *Scheme, k int) []overlay.NodeID {
	tb.Helper()
	var out []overlay.NodeID
	for v := 0; len(out) < k && v < s.sys.NumNodes(); v++ {
		if n := overlay.NodeID(v); s.sys.G.Alive(n) && s.publishedSnapshot(n) != nil {
			out = append(out, n)
		}
	}
	if len(out) < k {
		tb.Fatalf("only %d nodes published an ad, want %d", len(out), k)
	}
	return out
}

// TestWalkStartsLiveViewAliasingContract pins the buffer-aliasing contract
// of the delivery helpers: eligibleView returns the overlay's shared live
// view (stable until the next graph mutation), walkStarts returns s.wlkBuf
// (stable until the next walkStarts call), and the two never clobber each
// other — the GSA seed path holds an eligibleView result across an entire
// delivery, and the RW path holds wlkBuf across walk's internal
// eligibleView/pickNextHop calls.
func TestWalkStartsLiveViewAliasingContract(t *testing.T) {
	s, _ := attach(t, GSAKind)
	var a, b overlay.NodeID = -1, -1
	for v := 0; v < s.sys.NumNodes(); v++ {
		if len(s.eligibleView(overlay.NodeID(v))) > 0 {
			if a < 0 {
				a = overlay.NodeID(v)
			} else {
				b = overlay.NodeID(v)
				break
			}
		}
	}
	if b < 0 {
		t.Fatal("need two nodes with live neighbours")
	}

	live := s.eligibleView(a)
	liveCopy := slices.Clone(live)
	starts := s.walkStarts(b, s.cfg.Walkers)
	startsCopy := slices.Clone(starts)

	// walkStarts(b) ran eligibleView(b) internally; the held view of a's
	// neighbourhood must not move.
	if !slices.Equal(live, liveCopy) {
		t.Fatal("walkStarts clobbered a held eligibleView result")
	}

	// A full walk delivery while both buffers are held: it runs
	// eligibleView (GSA seeds), pickNextHop and the apply pass — but never
	// walkStarts, so both held slices must come through intact.
	snap := firstPublished(t, s)
	s.deliver(0, snap, adRefresh, snap.topics)

	if !slices.Equal(live, liveCopy) {
		t.Fatal("a delivery invalidated a held live view without any overlay mutation")
	}
	if !slices.Equal(starts, startsCopy) {
		t.Fatal("a walk delivery clobbered wlkBuf without calling walkStarts")
	}
}

// TestDeliveryHotPathAllocs is the delivery-side zero-alloc gate (wired
// into `make alloc-gate`): after one warm-up pass grows the reusable
// buffers, a single-ad refresh flood, a refresh tick flooding a full
// 64-source batch, and refresh ticks walking a batch of RW and of GSA ads
// (whose apply pass stores into the caches) must not allocate at all.
func TestDeliveryHotPathAllocs(t *testing.T) {
	fld, _ := attach(t, FLD)
	fsnap := firstPublished(t, fld)
	flood := func() { fld.deliver(0, fsnap, adRefresh, fsnap.topics) }
	flood()
	if a := testing.AllocsPerRun(10, flood); a != 0 {
		t.Errorf("a single-source flood allocates %.1f times per delivery, want 0", a)
	}
	fld.wheel[0] = publishedSources(t, fld, maxFloodBatch)
	tick := func() { fld.Tick(0) }
	tick()
	if a := testing.AllocsPerRun(10, tick); a != 0 {
		t.Errorf("a %d-source refresh tick allocates %.1f times, want 0", maxFloodBatch, a)
	}

	for _, d := range []DeliveryKind{RW, GSAKind} {
		s, _ := attach(t, d)
		s.wheel[0] = publishedSources(t, s, walkSlot)
		walk := func() { s.Tick(0) }
		walk()
		if a := testing.AllocsPerRun(10, walk); a != 0 {
			t.Errorf("a %d-source %s refresh tick allocates %.1f times, want 0", walkSlot, d, a)
		}
	}
}

// walkSlot is the wheel slot the walk gates and benchmarks tick: a batch of
// several walks.
const walkSlot = 8

// applyAt is one node's reaction to an ad copy it received, the step both
// per-node references take: cache the ad when interesting, and resolve a
// version gap by fetching the source's current full ad.
func applyAt(s *Scheme, t sim.Clock, v overlay.NodeID, snap *adSnapshot, kind adKind, targeting content.ClassSet, dkey uint64) {
	if !s.cacheEligible(v) || !s.groupInterests(v).Intersects(targeting) {
		return
	}
	if s.store(v, snap, kind, t) == storedGap {
		s.fetchFull(t, v, snap.src, dkey)
	}
}

// floodPerNode is the specification of a flood delivery: one
// duplicate-suppressed TTL-bounded BFS per ad, every copy booked, counted and
// put to the fault plane on its own — named by the delivery key and its edge,
// a gap fetch's legs by the key and the fetching holder — applyAt at every
// reached node in BFS order. Written out plainly so the batched traversal and
// the holders-only pass that deliverAll uses instead can be pinned against it.
func floodPerNode(s *Scheme, t sim.Clock, snap *adSnapshot, kind adKind) {
	s.beginApply()
	defer s.endApply()
	class, dkey := kind.class(), deliveryKey(t, snap, kind)
	type item struct {
		node overlay.NodeID
		hop  int
	}
	seen := map[overlay.NodeID]bool{snap.src: true}
	queue := []item{{snap.src, 0}}
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		if it.node != snap.src {
			applyAt(s, t, it.node, snap, kind, snap.topics, dkey)
		}
		if it.hop >= s.cfg.FloodTTL || s.sys.FreeRider(it.node) {
			continue
		}
		for _, nb := range s.eligibleView(it.node) {
			if s.sys.Deliver(t, class, snap.wireBytes(kind), it.node, nb, dkey, 0) && !seen[nb] {
				seen[nb] = true
				queue = append(queue, item{nb, it.hop + 1})
			}
		}
	}
}

// TestFloodHoldersPassMatchesPerNodeApply: a refresh or patch flood that
// applies the ad through the source's holder table (slot order, reached
// holders only) leaves every cache — fifo order, versions, freshness — and
// the load account exactly as applying it at every reached node in BFS
// order does: under partial reach, behind free riders that swallow the
// flood, and across version gaps that trigger full-ad fetches.
func TestFloodHoldersPassMatchesPerNodeApply(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ttl        int
		freeRiders bool
		gaps       bool
	}{
		{name: "full reach", ttl: testConfig(FLD).FloodTTL},
		{name: "ttl 2", ttl: 2},
		{name: "free riders", ttl: testConfig(FLD).FloodTTL, freeRiders: true},
		{name: "version gaps", ttl: 3, gaps: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two identically warmed systems: index 0 delivers through
			// deliver's fast path, index 1 through the specification. The
			// TTL under test applies after the warm-up, so holders exist
			// beyond its reach.
			var ss [2]*Scheme
			for k := range ss {
				ss[k], _ = attach(t, FLD)
				ss[k].cfg.FloodTTL = tc.ttl
			}
			if !reflect.DeepEqual(cacheViews(ss[0]), cacheViews(ss[1])) {
				t.Fatal("the two warm-ups diverged; nothing to compare")
			}
			var sources []overlay.NodeID
			for v := 0; len(sources) < 24 && v < len(ss[0].nodes); v += 3 {
				if ss[0].publishedSnapshot(overlay.NodeID(v)) != nil {
					sources = append(sources, overlay.NodeID(v))
				}
			}
			reached, unreached := 0, 0
			for k, s := range ss {
				if tc.freeRiders {
					mask := make([]bool, len(s.nodes))
					for v := range mask {
						mask[v] = v%3 == 1 // never a source
					}
					s.sys.SetFreeRiders(mask)
				}
				for n, src := range sources {
					snap := s.publishedSnapshot(src)
					if tc.gaps {
						// Age some holders' copies: one version behind takes
						// the patch, three behind is a gap either kind must
						// repair with a fetched full ad.
						for v := range s.nodes {
							if s.entry(overlay.NodeID(v), src) != nil && v%3 != 2 {
								s.ageHolder(overlay.NodeID(v), src, uint16(1+2*(v%3)))
							}
						}
					}
					kind := adRefresh
					if n%2 == 1 {
						kind = adPatch
					}
					at := sim.Clock(5000 + n)
					if k == 0 {
						s.deliver(at, snap, kind, snap.topics)
						for v := range s.nodes {
							if e := s.entry(overlay.NodeID(v), src); e != nil && e.lastSeen == at {
								reached++
							} else if e != nil {
								unreached++
							}
						}
					} else {
						floodPerNode(s, at, snap, kind)
					}
				}
				if err := checkIndex(s); err != nil {
					t.Fatal(err)
				}
			}
			if reached == 0 {
				t.Fatal("no holder was refreshed; the deliveries exercised nothing")
			}
			if tc.ttl == 2 && unreached == 0 {
				t.Error("every holder was within two hops; partial reach was not exercised")
			}
			if fetched := ss[0].sys.Load.ByClass()[metrics.MControl] > 0; fetched != tc.gaps {
				t.Errorf("gap fetches happened = %v, want %v", fetched, tc.gaps)
			}
			got, want := cacheViews(ss[0]), cacheViews(ss[1])
			for v := range want {
				if !slices.Equal(got[v], want[v]) {
					t.Fatalf("node %d caches diverged:\nholders pass %v\nper-node    %v", v, got[v], want[v])
				}
			}
			if !reflect.DeepEqual(ss[0].sys.Load, ss[1].sys.Load) {
				t.Errorf("load accounts diverged: by class %v vs %v", ss[0].sys.Load.ByClass(), ss[1].sys.Load.ByClass())
			}
		})
	}
}

// cachedView is one cache entry as the flood property tests compare it
// across separately built schemes. snapID numbers the distinct
// snapshot pointers of a scheme in first-appearance order (nodes ascending,
// fifo order within a node), so two schemes agree on it exactly when their
// entries alias snapshots the same way; current marks the source's
// published snapshot itself.
type cachedView struct {
	snapID   int
	src      overlay.NodeID
	version  uint16
	lastSeen sim.Clock
	current  bool
}

// cacheViews flattens every node's cache in fifo order.
func cacheViews(s *Scheme) [][]cachedView {
	ids := map[*adSnapshot]int{}
	caches := make([][]cachedView, len(s.nodes))
	for v := range s.nodes {
		ns := &s.nodes[v]
		caches[v] = make([]cachedView, 0, len(ns.live()))
		for _, i := range ns.live() {
			e := ns.slab[i]
			id, ok := ids[e.snap]
			if !ok {
				id = len(ids)
				ids[e.snap] = id
			}
			caches[v] = append(caches[v], cachedView{id, e.snap.src, e.snap.version, e.lastSeen,
				e.snap == s.publishedSnapshot(e.snap.src)})
		}
	}
	return caches
}

// sameHolders compares two schemes' holder tables as sets of (holder, slab
// index, version stamp) slots — slot layout is the one thing delivery order
// may legitimately change.
func sameHolders(a, b *Scheme) error {
	for src := range a.holders {
		ha, hb := &a.holders[src], &b.holders[src]
		if ha.n != hb.n {
			return fmt.Errorf("holders[%d]: %d vs %d holders", src, ha.n, hb.n)
		}
		for _, sl := range ha.slots {
			if sl.key == 0 {
				continue
			}
			if at := hb.find(overlay.NodeID(sl.key - 1)); at < 0 || hb.slots[at] != sl {
				return fmt.Errorf("holders[%d]: node %d: slot %+v has no equal (found at %d)", src, sl.key-1, sl, at)
			}
		}
	}
	return nil
}

// deliveryCase is one fixture of the delivery property tests: a random flat or
// super-peer overlay under no fault plane, independent loss, a partition into
// parts round-robin groups, or both.
type deliveryCase struct {
	hier  bool
	seed  uint64
	loss  float64
	parts int
}

func (tc deliveryCase) String() string {
	return fmt.Sprintf("hier=%v seed=%d loss=%v parts=%d", tc.hier, tc.seed, tc.loss, tc.parts)
}

// plane builds the case's fault plane, nil when it has neither fault.
func (tc deliveryCase) plane(nodes int) *faults.Plane {
	if tc.loss == 0 && tc.parts == 0 {
		return nil
	}
	p := faults.New(faults.Config{Seed: tc.seed, LossRate: tc.loss})
	if tc.parts > 0 {
		group := make([]int8, nodes)
		for v := range group {
			group[v] = int8(v % tc.parts)
		}
		p.SetPartition(group)
	}
	return p
}

// build warms one system of the given configuration up under the case's plane.
func (tc deliveryCase) build(cfg Config) (*Scheme, *obs.Recorder) {
	var sys *sim.System
	if tc.hier {
		// Nearly half the nodes are super peers, so a slot can hold
		// more than two batches of sources.
		rng := rand.New(rand.NewPCG(tc.seed, 0x1234))
		hosts := testNet.RandomNodes(len(testTr.Peers), rng)
		sys = sim.NewSystemWithGraph(testU, testTr, overlay.NewSuperPeer(testNet, hosts,
			testTr.InitialLive, 0.45, overlay.DefaultSuperDegree, rng))
		cfg.Hierarchical = true
	} else {
		sys = sim.NewSystem(testU, testTr, overlay.Random, testNet, tc.seed)
	}
	rec := obs.NewRecorder(int(testTr.Span()/1000) + 2)
	sys.SetObs(rec)
	sys.SetFaults(tc.plane(sys.NumNodes()))
	s := New(cfg)
	s.Attach(sys)
	return s, rec
}

// floodSlotSizes are the wheel-slot sizes the rounds cycle through: around
// the 64-source batch boundary, and past two full batches.
var floodSlotSizes = []int{1, 63, 64, 65, 130}

// prepare sets one round up on s, drawing every choice from rng — systems
// prepared from equal draws stay in lockstep — and returns the tick's time
// and wheel slot (already installed). The round's TTL is 1 + round%7. Some
// publications are held back so the tick sends patches, interests drift, some
// holders are left at stale versions so both kinds of ad hit gap fetches, and
// every refloodEvery-th slot entry loses its ad at some holders, so a full ad
// flooded after the tick inserts (and evicts) again.
func (tc deliveryCase) prepare(s *Scheme, rng *rand.Rand, round int) (sim.Clock, []overlay.NodeID) {
	n := len(s.nodes)
	at := sim.Clock(1000*(round+1) + rng.IntN(1000))
	s.cfg.FloodTTL = 1 + round%7
	// The slot: a random order of nodes up to the wanted number of
	// live publishers; the dead, leaf and unpublished nodes in
	// between are Tick's to skip.
	var slot []overlay.NodeID
	want := floodSlotSizes[round%len(floodSlotSizes)]
	for _, v := range rng.Perm(n) {
		node := overlay.NodeID(v)
		slot = append(slot, node)
		if s.sys.G.Alive(node) && s.repr(node) == node && s.publishedSnapshot(node) != nil {
			if want--; want == 0 {
				break
			}
		}
	}
	// Content changes while everyone free-rides: the publication is
	// held back, and the tick sends it as a patch.
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	s.sys.SetFreeRiders(all)
	for _, src := range slot {
		if !s.sys.G.Alive(src) || rng.IntN(4) != 0 {
			continue
		}
		m := src
		if leaves := s.sys.G.LeavesOf(src); len(leaves) > 0 {
			m = leaves[rng.IntN(len(leaves))]
		}
		if d := content.DocID(rng.IntN(testU.NumDocs())); !s.sys.HasDoc(m, d) {
			s.sys.ApplyEvent(&trace.Event{Time: int64(at), Kind: trace.ContentAdd, Node: m, Doc: d})
			s.ContentChanged(at, m, d, true)
		}
	}
	var riders []bool
	if (round+int(tc.seed))%2 == 1 {
		riders = make([]bool, n)
		for v := range riders {
			riders[v] = rng.IntN(6) == 0
		}
	}
	s.sys.SetFreeRiders(riders)
	for v := 0; v < n; v++ {
		if rng.IntN(5) != 0 {
			continue
		}
		var set content.ClassSet
		for k := rng.IntN(4); k > 0; k-- {
			set = set.Add(content.Class(rng.IntN(content.NumClasses)))
		}
		s.sys.SetInterests(overlay.NodeID(v), set)
	}
	// Age some holders' copies: one version behind takes a patch,
	// anything older (or any lag under a refresh) is a gap.
	for i, src := range slot {
		for v := range s.nodes {
			if s.entry(overlay.NodeID(v), src) == nil {
				continue
			}
			if i%refloodEvery == 0 && rng.IntN(3) == 0 {
				s.drop(overlay.NodeID(v), src)
			} else if rng.IntN(8) == 0 {
				s.ageHolder(overlay.NodeID(v), src, uint16(1+rng.IntN(3)))
			}
		}
	}
	s.wheel[int(at/1000)%s.cfg.RefreshPeriodSec] = slot
	return at, slot
}

const refloodEvery = 8

// refloods lists the full ads a round floods after its tick: the current ad
// of every refloodEvery-th slot entry that has one.
func refloods(s *Scheme, slot []overlay.NodeID) []floodAd {
	var ads []floodAd
	for i := 0; i < len(slot); i += refloodEvery {
		if snap := s.publishedSnapshot(slot[i]); snap != nil && s.sys.G.Alive(slot[i]) {
			ads = append(ads, floodAd{snap, adFull, snap.topics})
		}
	}
	return ads
}

// sameDeliveryState reports the first difference between two systems the same
// deliveries went through: every cache (fifo order, snapshot aliasing, versions,
// freshness), every holder table as a set, the load account per second and
// class with its drop counter, and the obs series (messages per class, drops,
// partition drops).
func sameDeliveryState(a, b *Scheme, ra, rb *obs.Recorder) error {
	got, want := cacheViews(a), cacheViews(b)
	for v := range want {
		if !slices.Equal(got[v], want[v]) {
			return fmt.Errorf("node %d caches diverged:\ngot  %v\nwant %v", v, got[v], want[v])
		}
	}
	if err := sameHolders(a, b); err != nil {
		return fmt.Errorf("holder tables diverged: %v", err)
	}
	if !reflect.DeepEqual(a.sys.Load, b.sys.Load) {
		return fmt.Errorf("load accounts diverged: by class %v vs %v", a.sys.Load.ByClass(), b.sys.Load.ByClass())
	}
	if !reflect.DeepEqual(ra.Series("", a.sys.Load), rb.Series("", b.sys.Load)) {
		return fmt.Errorf("obs series diverged")
	}
	return nil
}

// tickOneByOne fires a refresh-wheel slot one source at a time, publication
// and delivery interleaved — Tick as it was before floods were batched —
// handing each ad to deliver.
func tickOneByOne(s *Scheme, slot []overlay.NodeID, deliver func(*adSnapshot, adKind)) {
	for _, n := range slot {
		if !s.sys.G.Alive(n) || s.repr(n) != n {
			continue
		}
		if snap := s.publish(n); snap != nil {
			deliver(snap, adPatch)
		} else if snap := s.publishedSnapshot(n); snap != nil && !s.sys.FreeRider(n) {
			deliver(snap, adRefresh)
		}
	}
}

// TestFloodBatchMatchesSequentialAndPerNode extends the holders-pass
// property to whole refresh ticks, each followed by a handful of full-ad
// floods: delivering them through batched traversals (Tick, deliverAll), as
// sequential single-source deliveries, and by the per-node BFS-order
// specification must leave three identically prepared systems identical
// (sameDeliveryState). Rounds run back to back on the same three systems over
// random flat and super-peer graphs, crossing every TTL 1…7 with slot sizes
// around the 64-source batch boundary, with and without free riders (see
// prepare) — and under fault planes (5 % and 30 % loss, an engaged two-group
// partition, both), where the reference puts every copy to the plane by
// (delivery key, edge) and the drop and partition-drop counters must agree
// copy for copy.
func TestFloodBatchMatchesSequentialAndPerNode(t *testing.T) {
	// one delivers a single ad; the batched arm (nil) hands whole lists over.
	arms := []struct {
		name string
		one  func(s *Scheme, at sim.Clock, snap *adSnapshot, kind adKind)
	}{
		{"batched", nil},
		{"sequential deliveries", func(s *Scheme, at sim.Clock, snap *adSnapshot, kind adKind) {
			s.deliver(at, snap, kind, snap.topics)
		}},
		{"per-node reference", floodPerNode},
	}
	rounds := len(floodSlotSizes) * 7
	if testing.Short() {
		rounds = 10
	}
	var patches, fetches, refreshed, skipped, reinserted, largest int
	for _, tc := range []deliveryCase{
		{false, 1, 0, 0}, {false, 2, 0, 0}, {true, 3, 0, 0}, {true, 4, 0, 0},
		{false, 5, 0.05, 0}, {true, 6, 0.3, 0}, {false, 7, 0, 2}, {true, 8, 0.05, 2},
	} {
		var ss [3]*Scheme
		var recs [3]*obs.Recorder
		for k := range ss {
			ss[k], recs[k] = tc.build(testConfig(FLD))
		}
		for round := 0; round < rounds; round++ {
			var at sim.Clock
			var slot []overlay.NodeID
			for k, s := range ss {
				at, slot = tc.prepare(s, rand.New(rand.NewPCG(tc.seed, uint64(round))), round)
				if one := arms[k].one; one == nil {
					s.Tick(at)
					s.deliverAll(at, refloods(s, slot))
				} else {
					tickOneByOne(s, slot, func(snap *adSnapshot, kind adKind) { one(s, at, snap, kind) })
					for _, ad := range refloods(s, slot) {
						one(s, at, ad.snap, adFull)
					}
				}
				if err := checkIndex(s); err != nil {
					t.Fatalf("%v round %d, %s: %v", tc, round, arms[k].name, err)
				}
			}
			for k := 0; k < 2; k++ {
				if err := sameDeliveryState(ss[k], ss[2], recs[k], recs[2]); err != nil {
					t.Fatalf("%v round %d (ttl %d, slot of %d): %s vs %s: %v",
						tc, round, ss[k].cfg.FloodTTL, len(slot), arms[k].name, arms[2].name, err)
				}
			}
			live := 0
			for i, src := range slot {
				snap := ss[0].publishedSnapshot(src)
				if snap == nil || !ss[0].sys.G.Alive(src) || ss[0].sys.FreeRider(src) {
					continue
				}
				live++
				for v := range ss[0].nodes {
					if e := ss[0].entry(overlay.NodeID(v), src); e != nil && e.lastSeen == at {
						refreshed++
						if i%refloodEvery == 0 {
							reinserted++
						}
					} else if e != nil {
						skipped++
					}
				}
			}
			largest = max(largest, live)
		}
		by := ss[0].sys.Load.ByClass()
		patches += int(by[metrics.MAdPatch])
		fetches += int(by[metrics.MControl])
		if drops, _, _ := ss[0].sys.Load.FaultCounts(); (drops > 0) != (tc.loss > 0 || tc.parts > 0) {
			t.Errorf("%v: %d copies dropped", tc, drops)
		}
	}
	// The property is only worth its name if the rounds exercised it.
	if patches == 0 || fetches == 0 || refreshed == 0 || skipped == 0 || reinserted == 0 {
		t.Errorf("exercised too little: patch bytes %d, gap-fetch bytes %d, holders refreshed %d (%d by full ads), holders left alone %d",
			patches, fetches, refreshed, reinserted, skipped)
	}
	if !testing.Short() && largest <= 2*maxFloodBatch {
		t.Errorf("largest slot flooded %d sources; want more than two full batches", largest)
	}
}

// TestFloodUnderPlaneIsChunkingInvariant is the property identity keying
// buys: under a fault plane no drop decision depends on what else a traversal
// carries or on the order sources are visited in, so the same refresh tick
// delivered as one batch per 64 sources, as batches of one, and from the
// reversed wheel slot leaves identical caches, holder tables, load cells,
// drop counters and obs series.
func TestFloodUnderPlaneIsChunkingInvariant(t *testing.T) {
	arms := []struct {
		name string
		fire func(s *Scheme, at sim.Clock, slot []overlay.NodeID)
	}{
		{"one traversal per 64 sources", func(s *Scheme, at sim.Clock, _ []overlay.NodeID) { s.Tick(at) }},
		{"batches of one", func(s *Scheme, at sim.Clock, slot []overlay.NodeID) {
			tickOneByOne(s, slot, func(snap *adSnapshot, kind adKind) { s.deliver(at, snap, kind, snap.topics) })
		}},
		{"reversed source order", func(s *Scheme, at sim.Clock, slot []overlay.NodeID) {
			slices.Reverse(slot)
			s.Tick(at)
		}},
	}
	rounds := 2 * len(floodSlotSizes)
	for _, tc := range []deliveryCase{{false, 11, 0.2, 0}, {true, 12, 0.05, 2}} {
		var ss [3]*Scheme
		var recs [3]*obs.Recorder
		for k := range ss {
			ss[k], recs[k] = tc.build(testConfig(FLD))
		}
		for round := 0; round < rounds; round++ {
			for k, s := range ss {
				at, slot := tc.prepare(s, rand.New(rand.NewPCG(tc.seed, uint64(round))), round)
				arms[k].fire(s, at, slot)
				if err := checkIndex(s); err != nil {
					t.Fatalf("%v round %d, %s: %v", tc, round, arms[k].name, err)
				}
			}
			for k := 1; k < 3; k++ {
				if err := sameDeliveryState(ss[k], ss[0], recs[k], recs[0]); err != nil {
					t.Fatalf("%v round %d: %s vs %s: %v", tc, round, arms[k].name, arms[0].name, err)
				}
			}
		}
		if drops, _, _ := ss[0].sys.Load.FaultCounts(); drops == 0 {
			t.Errorf("%v: the plane dropped nothing", tc)
		}
	}
}

// walkPerVisit is the specification of a walk delivery: deliver's walkers as
// they ran when each visit applied the ad on the spot, every copy booked,
// counted and put to the plane on its own — walker w's copy at step s named
// (deliveryKey folded with w, edge, s), a gap fetch's legs by the key and the
// fetching holder. A node applies (applyAt) at its first visit. A revisit
// re-delivers a copy the node has acted on: it stores again, which moves
// freshness at most, and does not re-send a gap fetch a lost leg left open:
// under loss a node acts on a delivery once, a modelling rule (DESIGN.md §11).
func walkPerVisit(s *Scheme, t sim.Clock, snap *adSnapshot, kind adKind) {
	s.beginApply()
	defer s.endApply()
	budget := max(1, snap.topics.Count()) * s.cfg.BudgetUnit
	if t >= 0 {
		budget = max(1, budget/s.cfg.UpdateBudgetDiv)
	}
	starts := s.eligibleView(snap.src)
	if s.cfg.Delivery == RW {
		starts = s.walkStarts(snap.src, s.cfg.Walkers)
	}
	if len(starts) == 0 {
		return
	}
	class, bytes, dkey := kind.class(), snap.wireBytes(kind), deliveryKey(t, snap, kind)
	acted := map[overlay.NodeID]bool{}
	visit := func(v overlay.NodeID) {
		switch {
		case v == snap.src:
		case !acted[v]:
			acted[v] = true
			applyAt(s, t, v, snap, kind, snap.topics, dkey)
		case s.cacheEligible(v) && s.groupInterests(v).Intersects(snap.topics):
			s.store(v, snap, kind, t)
		}
	}
	perWalker := max(1, budget/len(starts))
	for w, start := range starts {
		wkey := faults.Fold(dkey, uint64(w))
		cur, prev := start, snap.src
		if !s.sys.Deliver(t, class, bytes, snap.src, cur, wkey, 0) {
			continue
		}
		visit(cur)
		if s.sys.FreeRider(cur) {
			continue
		}
		for step := 1; step < perWalker; step++ {
			next := s.pickNextHop(cur, prev, snap.topics)
			if next < 0 {
				break
			}
			prev, cur = cur, next
			if !s.sys.Deliver(t, class, bytes, prev, cur, wkey, uint32(step)) {
				break
			}
			visit(cur)
			if s.sys.FreeRider(cur) {
				break
			}
		}
	}
}

// walkBudgetDivs are the UpdateBudgetDiv values the walk rounds cycle
// through: walks of a handful of nodes up to walks reaching most of the
// overlay.
var walkBudgetDivs = []int{1, 12, 60}

// TestWalkDeliveryMatchesPerVisit: a walk delivery that walks first and then
// applies once per reached node through the shared apply pass leaves every
// cache (fifo order, snapshot aliasing, versions, freshness), every holder
// table, the load account with its drop tally and the obs series exactly as
// applying at every visit in walk order does (walkPerVisit). Two lockstep
// systems run rounds of a refresh tick — patches, refreshes — followed by
// re-inserting full ads, with free riders, interest drift and aged holders
// that need gap fetches (see prepare), for RW and GSA starts, uniform and
// biased walks, flat and super-peer overlays, under no plane, 5 % loss and an
// engaged two-group partition.
func TestWalkDeliveryMatchesPerVisit(t *testing.T) {
	rounds := 2 * len(floodSlotSizes)
	if testing.Short() {
		rounds = 4
	}
	var patches, fetches, refreshed, skipped int
	planes := []struct {
		loss  float64
		parts int
	}{{0, 0}, {0.05, 0}, {0, 2}}
	n := 0
	for _, d := range []DeliveryKind{RW, GSAKind} {
		for _, biased := range []bool{false, true} {
			for _, p := range planes {
				n++
				tc := deliveryCase{hier: n%2 == 0, seed: uint64(20 + n), loss: p.loss, parts: p.parts}
				cfg := testConfig(d)
				cfg.BiasedDelivery = biased
				var ss [2]*Scheme
				var recs [2]*obs.Recorder
				for k := range ss {
					ss[k], recs[k] = tc.build(cfg)
				}
				for round := 0; round < rounds; round++ {
					var at sim.Clock
					var slot []overlay.NodeID
					for k, s := range ss {
						at, slot = tc.prepare(s, rand.New(rand.NewPCG(tc.seed, uint64(round))), round)
						s.cfg.UpdateBudgetDiv = walkBudgetDivs[round%len(walkBudgetDivs)]
						if k == 0 {
							s.Tick(at)
							s.deliverAll(at, refloods(s, slot))
						} else {
							tickOneByOne(s, slot, func(snap *adSnapshot, kind adKind) { walkPerVisit(s, at, snap, kind) })
							for _, ad := range refloods(s, slot) {
								walkPerVisit(s, at, ad.snap, adFull)
							}
						}
						if err := checkIndex(s); err != nil {
							t.Fatalf("%s biased=%v %v round %d, system %d: %v", d, biased, tc, round, k, err)
						}
					}
					if err := sameDeliveryState(ss[0], ss[1], recs[0], recs[1]); err != nil {
						t.Fatalf("%s biased=%v %v round %d (budget ÷%d, slot of %d): walk then apply vs per visit: %v",
							d, biased, tc, round, ss[0].cfg.UpdateBudgetDiv, len(slot), err)
					}
					for _, src := range slot {
						for v := range ss[0].nodes {
							if e := ss[0].entry(overlay.NodeID(v), src); e != nil && e.lastSeen == at {
								refreshed++
							} else if e != nil {
								skipped++
							}
						}
					}
				}
				by := ss[0].sys.Load.ByClass()
				patches += int(by[metrics.MAdPatch])
				fetches += int(by[metrics.MControl])
				if drops, _, _ := ss[0].sys.Load.FaultCounts(); (drops > 0) != (tc.loss > 0 || tc.parts > 0) {
					t.Errorf("%s biased=%v %v: %d copies dropped", d, biased, tc, drops)
				}
			}
		}
	}
	if patches == 0 || fetches == 0 || refreshed == 0 || skipped == 0 {
		t.Errorf("exercised too little: patch bytes %d, gap-fetch bytes %d, holders refreshed %d, holders left alone %d",
			patches, fetches, refreshed, skipped)
	}
}

// TestPickListsEachNodeOnce: a multi-source flood lists a node once per level
// that brought it a new flood, yet pick names each recipient of a full ad
// once, so the apply pass stores it once. (A repeated store of the same full
// ad would change nothing but its cost.)
func TestPickListsEachNodeOnce(t *testing.T) {
	s, _ := deliveryCase{seed: 31}.build(testConfig(FLD))
	var ads []floodAd
	for _, src := range publishedSources(t, s, maxFloodBatch) {
		ads = append(ads, floodAd{s.publishedSnapshot(src), adFull, s.publishedSnapshot(src).topics})
	}
	s.reach(0, ads)
	if len(s.flood.order) <= len(s.nodes) {
		t.Fatalf("%d sources listed %d nodes of %d: no node listed twice", len(ads), len(s.flood.order), len(s.nodes))
	}
	for i, ad := range ads {
		seen := map[uint32]bool{}
		for _, v := range s.pick(i, ad) {
			if seen[v] {
				t.Fatalf("source %d: node %d picked twice", ad.snap.src, v)
			}
			seen[v] = true
		}
	}
	s.flood.reset()
}

func benchScheme(b *testing.B, d DeliveryKind) *Scheme { return benchSchemeUnder(b, d, nil) }

func benchSchemeUnder(b *testing.B, d DeliveryKind, plane *faults.Plane) *Scheme {
	b.Helper()
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
	sys.SetFaults(plane)
	s := New(testConfig(d))
	s.Attach(sys)
	return s
}

func BenchmarkDeliverFlood(b *testing.B) {
	s := benchScheme(b, FLD)
	snap := firstPublished(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.deliver(0, snap, adRefresh, snap.topics)
	}
}

// BenchmarkTickRefresh is one refresh tick over a wheel slot of 1, 8 and 64
// sources. For floods, ns/source is what batching the slot into one traversal
// buys — without a fault plane, under one that can drop nothing, and at 5 %
// loss, where every copy's fate is one hash. For walks it is one walk delivery
// and its apply pass per source.
func BenchmarkTickRefresh(b *testing.B) {
	for _, p := range []struct {
		delivery DeliveryKind
		name     string
		plane    *faults.Plane
	}{
		{FLD, "none", nil},
		{FLD, "zero-loss", faults.New(faults.Config{Seed: 1})},
		{FLD, "loss0.05", faults.New(faults.Config{Seed: 1, LossRate: 0.05})},
		{RW, "none", nil},
	} {
		for _, k := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("delivery=%s/plane=%s/sources=%d", p.delivery, p.name, k), func(b *testing.B) {
				s := benchSchemeUnder(b, p.delivery, p.plane)
				s.wheel[0] = publishedSources(b, s, k)
				s.Tick(0) // grow the delivery scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Tick(0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/source")
			})
		}
	}
}

// BenchmarkDeliverWalk is one refresh tick walking a batch of walkSlot ads
// from RW and from GSA starts: every walk of the batch, then its apply pass.
func BenchmarkDeliverWalk(b *testing.B) {
	for _, d := range []DeliveryKind{RW, GSAKind} {
		b.Run(fmt.Sprintf("delivery=%s", d), func(b *testing.B) {
			s := benchScheme(b, d)
			s.wheel[0] = publishedSources(b, s, walkSlot)
			s.Tick(0) // grow the delivery scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Tick(0)
			}
		})
	}
}
