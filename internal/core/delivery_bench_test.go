package core

import (
	"reflect"
	"slices"
	"testing"

	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
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
// buffers, refresh deliveries over flood and walk — and a single applyAd —
// must not allocate at all.
func TestDeliveryHotPathAllocs(t *testing.T) {
	fld, _ := attach(t, FLD)
	fsnap := firstPublished(t, fld)
	var dseq uint32
	flood := func() {
		dseq = 0
		fld.deliverFlood(0, fsnap, adRefresh, fsnap.topics, fsnap.wireBytes(adRefresh), metrics.MAdRefresh, 1, &dseq)
		fld.acc.Flush(fld.sys, metrics.MAdRefresh)
	}
	flood()
	if a := testing.AllocsPerRun(10, flood); a != 0 {
		t.Errorf("deliverFlood allocates %.1f times per delivery, want 0", a)
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

// floodPerNode is the specification of a fault-free flood delivery: the
// same duplicate-suppressed TTL-bounded BFS as deliverFlood with applyAd at
// every reached node in BFS order — the path full ads and lossy networks
// take — written out plainly so the holders-only pass that refresh and
// patch floods use instead can be pinned against it.
func floodPerNode(s *Scheme, t sim.Clock, snap *adSnapshot, kind adKind, class metrics.MsgClass) {
	s.beginApply()
	defer s.endApply()
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
			s.sys.Account(t, class, snap.wireBytes(kind))
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
	type cached struct {
		src      overlay.NodeID
		version  uint16
		lastSeen sim.Clock
	}
	contents := func(s *Scheme) [][]cached {
		out := make([][]cached, len(s.nodes))
		for v := range s.nodes {
			for _, e := range cacheEntries(&s.nodes[v]) {
				out[v] = append(out[v], cached{e.snap.src, e.snap.version, e.lastSeen})
			}
		}
		return out
	}
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
			if !reflect.DeepEqual(contents(ss[0]), contents(ss[1])) {
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
					kind, class := adRefresh, metrics.MAdRefresh
					if n%2 == 1 {
						kind, class = adPatch, metrics.MAdPatch
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
						floodPerNode(s, at, snap, kind, class)
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
			got, want := contents(ss[0]), contents(ss[1])
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
	msgBytes := snap.wireBytes(adRefresh)
	var dseq uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dseq = 0
		s.deliverFlood(0, snap, adRefresh, snap.topics, msgBytes, metrics.MAdRefresh, 1, &dseq)
		s.acc.Flush(s.sys, metrics.MAdRefresh)
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
