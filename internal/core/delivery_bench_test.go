package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"asap/internal/content"
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
// of the delivery helpers: liveNeighbors returns the overlay's shared live
// view (stable until the next graph mutation), walkStarts returns s.wlkBuf
// (stable until the next walkStarts call), and the two never clobber each
// other — the GSA seed path holds a liveNeighbors result across an entire
// delivery, and the RW path holds wlkBuf across deliverWalk's internal
// liveNeighbors/pickNextHop calls.
func TestWalkStartsLiveViewAliasingContract(t *testing.T) {
	s, _ := attach(t, GSAKind)
	var a, b overlay.NodeID = -1, -1
	for v := 0; v < s.sys.NumNodes(); v++ {
		if len(s.liveNeighbors(overlay.NodeID(v))) > 0 {
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

	live := s.liveNeighbors(a)
	liveCopy := slices.Clone(live)
	starts := s.walkStarts(b, s.cfg.Walkers)
	startsCopy := slices.Clone(starts)

	// walkStarts(b) ran liveNeighbors(b) internally; the held view of a's
	// neighbourhood must not move.
	if !slices.Equal(live, liveCopy) {
		t.Fatal("walkStarts clobbered a held liveNeighbors result")
	}

	// A full walk delivery while both buffers are held: it runs
	// liveNeighbors (GSA seeds), pickNextHop and applyAd — but never
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
// buffers, refresh deliveries over flood and walk, a refresh tick flooding a
// full 64-source batch, and a single applyAd must not allocate at all.
func TestDeliveryHotPathAllocs(t *testing.T) {
	fld, _ := attach(t, FLD)
	fsnap := firstPublished(t, fld)
	var dseq uint32
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

	rw, _ := attach(t, RW)
	wsnap := firstPublished(t, rw)
	budget := max(1, wsnap.topics.Count()) * rw.cfg.BudgetUnit
	walk := func() {
		dseq = 0
		starts := rw.walkStarts(wsnap.src, rw.cfg.Walkers)
		rw.deliverWalk(0, wsnap, adRefresh, wsnap.topics, wsnap.wireBytes(adRefresh), starts, budget, metrics.MAdRefresh, 1, &dseq)
		rw.acc.Flush(rw.sys, metrics.MAdRefresh)
	}
	walk()
	if a := testing.AllocsPerRun(10, walk); a != 0 {
		t.Errorf("deliverWalk allocates %.1f times per delivery, want 0", a)
	}

	// A refresh re-application to one already-caching node.
	var target overlay.NodeID = -1
	for v := 0; v < rw.sys.NumNodes(); v++ {
		if overlay.NodeID(v) != wsnap.src && rw.HasCachedAd(overlay.NodeID(v), wsnap.src) {
			target = overlay.NodeID(v)
			break
		}
	}
	if target < 0 {
		t.Fatal("warm-up cached the ad nowhere")
	}
	apply := func() {
		dseq = 0
		rw.applyAd(0, target, wsnap, adRefresh, wsnap.topics, 1, &dseq)
	}
	apply()
	if a := testing.AllocsPerRun(10, apply); a != 0 {
		t.Errorf("applyAd allocates %.1f times per application, want 0", a)
	}
}

// floodPerNode is the specification of a fault-free flood delivery: one
// duplicate-suppressed TTL-bounded BFS per ad, every copy booked on its own,
// applyAd at every reached node in BFS order — written out plainly so the
// batched traversal and the holders-only pass that floodBatch uses instead
// can be pinned against it.
func floodPerNode(s *Scheme, t sim.Clock, snap *adSnapshot, kind adKind) {
	s.beginApply()
	defer s.endApply()
	class := kind.class()
	type item struct {
		node overlay.NodeID
		hop  int
	}
	var dseq uint32
	seen := map[overlay.NodeID]bool{snap.src: true}
	queue := []item{{snap.src, 0}}
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		if it.node != snap.src {
			s.applyAd(t, it.node, snap, kind, snap.topics, 1, &dseq)
		}
		if it.hop >= s.cfg.FloodTTL || s.sys.FreeRider(it.node) {
			continue
		}
		for _, nb := range s.eligibleView(it.node) {
			s.sys.Deliver(t, class, snap.wireBytes(kind), it.node, nb, 1, nextSeq(&dseq))
			if !seen[nb] {
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
							if e := s.entry(overlay.NodeID(v), src); e != nil && v%3 != 2 {
								old := *snap
								old.version -= uint16(1 + 2*(v%3))
								e.snap = &old
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
// index) pairs — slot layout is the one thing delivery order may
// legitimately change.
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
			if idx, held := hb.get(overlay.NodeID(sl.key - 1)); !held || idx != sl.idx {
				return fmt.Errorf("holders[%d]: node %d at slab index %d vs (%d, held %v)", src, sl.key-1, sl.idx, idx, held)
			}
		}
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
// property to whole refresh ticks: flooding a wheel slot through batched
// traversals (Tick), as sequential single-source deliveries, and by the
// per-node BFS-order specification must leave three identically prepared
// systems identical — every cache (fifo order, snapshot aliasing, versions,
// freshness), every holder table as a set, the load account per second and
// class, and the obs message series. Rounds run back to back on the same
// three systems over random flat and super-peer graphs, crossing every TTL
// 1…7 with slot sizes around the 64-source batch boundary, with and without
// free riders, with publications held back so the tick sends patches, with
// interests drifting after the ads were cached, and with holders left at
// stale versions so both kinds of ad hit gap fetches.
func TestFloodBatchMatchesSequentialAndPerNode(t *testing.T) {
	arms := []struct {
		name string
		fire func(s *Scheme, at sim.Clock, slot []overlay.NodeID)
	}{
		{"batched tick", func(s *Scheme, at sim.Clock, _ []overlay.NodeID) { s.Tick(at) }},
		{"sequential deliveries", func(s *Scheme, at sim.Clock, slot []overlay.NodeID) {
			tickOneByOne(s, slot, func(snap *adSnapshot, kind adKind) { s.deliver(at, snap, kind, snap.topics) })
		}},
		{"per-node reference", func(s *Scheme, at sim.Clock, slot []overlay.NodeID) {
			tickOneByOne(s, slot, func(snap *adSnapshot, kind adKind) { floodPerNode(s, at, snap, kind) })
		}},
	}
	sizes := []int{1, 63, 64, 65, 130}
	rounds := len(sizes) * 7
	if testing.Short() {
		rounds = 10
	}
	var patches, fetches, refreshed, skipped, largest int
	for _, tc := range []struct {
		hier bool
		seed uint64
	}{{false, 1}, {false, 2}, {true, 3}, {true, 4}} {
		build := func() (*Scheme, *obs.Recorder) {
			cfg := testConfig(FLD)
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
			s := New(cfg)
			s.Attach(sys)
			return s, rec
		}
		// prepare sets one round up on s, drawing every choice from rng: the
		// arms stay in lockstep, so equal draws prepare equal systems.
		prepare := func(s *Scheme, rng *rand.Rand, round int) (sim.Clock, []overlay.NodeID) {
			n := len(s.nodes)
			at := sim.Clock(1000*(round+1) + rng.IntN(1000))
			s.cfg.FloodTTL = 1 + round%7
			// The slot: a random order of nodes up to the wanted number of
			// live publishers; the dead, leaf and unpublished nodes in
			// between are Tick's to skip.
			var slot []overlay.NodeID
			want := sizes[round%len(sizes)]
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
			for _, src := range slot {
				for v := range s.nodes {
					if e := s.entry(overlay.NodeID(v), src); e != nil && rng.IntN(8) == 0 {
						old := *e.snap
						old.version -= uint16(1 + rng.IntN(3))
						e.snap = &old
					}
				}
			}
			return at, slot
		}

		var ss [3]*Scheme
		var recs [3]*obs.Recorder
		for k := range ss {
			ss[k], recs[k] = build()
		}
		for round := 0; round < rounds; round++ {
			var at sim.Clock
			var slot []overlay.NodeID
			for k, s := range ss {
				at, slot = prepare(s, rand.New(rand.NewPCG(tc.seed, uint64(round))), round)
				s.wheel[int(at/1000)%s.cfg.RefreshPeriodSec] = slot
				arms[k].fire(s, at, slot)
				if err := checkIndex(s); err != nil {
					t.Fatalf("hier=%v seed=%d round %d, %s: %v", tc.hier, tc.seed, round, arms[k].name, err)
				}
			}
			wantCaches := cacheViews(ss[2])
			wantSeries := recs[2].Series("", ss[2].sys.Load)
			for k := 0; k < 2; k++ {
				where := fmt.Sprintf("hier=%v seed=%d round %d (ttl %d, slot of %d): %s vs %s",
					tc.hier, tc.seed, round, ss[k].cfg.FloodTTL, len(slot), arms[k].name, arms[2].name)
				caches := cacheViews(ss[k])
				for v := range wantCaches {
					if !slices.Equal(caches[v], wantCaches[v]) {
						t.Fatalf("%s: node %d caches diverged:\ngot  %v\nwant %v", where, v, caches[v], wantCaches[v])
					}
				}
				if err := sameHolders(ss[k], ss[2]); err != nil {
					t.Fatalf("%s: holder tables diverged: %v", where, err)
				}
				if !reflect.DeepEqual(ss[k].sys.Load, ss[2].sys.Load) {
					t.Fatalf("%s: load accounts diverged: by class %v vs %v", where, ss[k].sys.Load.ByClass(), ss[2].sys.Load.ByClass())
				}
				if !reflect.DeepEqual(recs[k].Series("", ss[k].sys.Load), wantSeries) {
					t.Fatalf("%s: obs series diverged", where)
				}
			}
			live := 0
			for _, src := range slot {
				snap := ss[0].publishedSnapshot(src)
				if snap == nil || !ss[0].sys.G.Alive(src) || ss[0].sys.FreeRider(src) {
					continue
				}
				live++
				for v := range ss[0].nodes {
					if e := ss[0].entry(overlay.NodeID(v), src); e != nil && e.lastSeen == at {
						refreshed++
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
	}
	// The property is only worth its name if the rounds exercised it.
	if patches == 0 || fetches == 0 || refreshed == 0 || skipped == 0 {
		t.Errorf("exercised too little: patch bytes %d, gap-fetch bytes %d, holders refreshed %d, holders left alone %d",
			patches, fetches, refreshed, skipped)
	}
	if !testing.Short() && largest <= 2*maxFloodBatch {
		t.Errorf("largest slot flooded %d sources; want more than two full batches", largest)
	}
}

func benchScheme(b *testing.B, d DeliveryKind) *Scheme {
	b.Helper()
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
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
// sources: ns/source is what batching the slot into one traversal buys.
func BenchmarkTickRefresh(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sources=%d", k), func(b *testing.B) {
			s := benchScheme(b, FLD)
			s.wheel[0] = publishedSources(b, s, k)
			s.Tick(0) // grow the traversal scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Tick(0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/source")
		})
	}
}

func BenchmarkDeliverWalk(b *testing.B) {
	s := benchScheme(b, RW)
	snap := firstPublished(b, s)
	msgBytes := snap.wireBytes(adRefresh)
	budget := max(1, snap.topics.Count()) * s.cfg.BudgetUnit
	var dseq uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dseq = 0
		starts := s.walkStarts(snap.src, s.cfg.Walkers)
		s.deliverWalk(0, snap, adRefresh, snap.topics, msgBytes, starts, budget, metrics.MAdRefresh, 1, &dseq)
		s.acc.Flush(s.sys, metrics.MAdRefresh)
	}
}

func BenchmarkApplyAd(b *testing.B) {
	s := benchScheme(b, RW)
	snap := firstPublished(b, s)
	var target overlay.NodeID = -1
	for v := 0; v < s.sys.NumNodes(); v++ {
		if overlay.NodeID(v) != snap.src && s.HasCachedAd(overlay.NodeID(v), snap.src) {
			target = overlay.NodeID(v)
			break
		}
	}
	if target < 0 {
		b.Fatal("warm-up cached the ad nowhere")
	}
	var dseq uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dseq = 0
		s.applyAd(0, target, snap, adRefresh, snap.topics, 1, &dseq)
	}
}
