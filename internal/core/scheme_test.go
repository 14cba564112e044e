package core

import (
	"testing"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

var (
	testNet = netmodel.Generate(netmodel.SmallConfig())
	testU   = func() *content.Universe {
		c := content.DefaultConfig()
		c.NumPeers = 900
		c.NumDocs = 25000
		return content.Generate(c)
	}()
	testTr = func() *trace.Trace {
		cfg := trace.DefaultConfig()
		cfg.NumNodes = 400
		cfg.NumQueries = 1000
		cfg.NumJoins = 40
		cfg.NumLeaves = 40
		tr, err := trace.Build(testU, cfg)
		if err != nil {
			panic(err)
		}
		return tr
	}()
)

// testConfig scales the paper's knobs to the 400-node test overlay.
func testConfig(d DeliveryKind) Config {
	c := DefaultConfig(d).Scaled(0.05)
	c.RefreshPeriodSec = 30
	return c
}

func attach(t *testing.T, d DeliveryKind) (*Scheme, *sim.System) {
	t.Helper()
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
	s := New(testConfig(d))
	s.Attach(sys)
	return s, sys
}

func TestAttachWarmsCaches(t *testing.T) {
	s, sys := attach(t, RW)
	// Warm-up delivery is accounted as warm-up, not run load.
	if sys.Load.WarmupBytes(metrics.AllMask) == 0 {
		t.Fatal("no warm-up ad traffic")
	}
	if sys.Load.TotalBytes(metrics.AllMask) != 0 {
		t.Fatal("warm-up leaked into the run window")
	}
	// Most nodes should have cached something interesting.
	warmed := 0
	for n := 0; n < testTr.InitialLive; n++ {
		if s.CacheSize(overlay.NodeID(n)) > 0 {
			warmed++
		}
	}
	if warmed < testTr.InitialLive/2 {
		t.Errorf("only %d/%d nodes warmed a cache", warmed, testTr.InitialLive)
	}
}

func TestSchemeNames(t *testing.T) {
	for _, d := range DeliveryKinds {
		s := New(testConfig(d))
		want := "asap-" + d.String()
		if s.Name() != want {
			t.Errorf("Name = %q, want %q", s.Name(), want)
		}
		if s.LoadMask() != metrics.ASAPLoadMask {
			t.Error("wrong load mask")
		}
	}
}

func TestSearchOneHopAfterWarmup(t *testing.T) {
	s, _ := attach(t, FLD) // FLD warms most broadly
	succ, oneHop, total := 0, 0, 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		total++
		res := s.Search(ev)
		if res.Success {
			succ++
			if res.Hops == 1 {
				oneHop++
			}
			if res.ResponseMS <= 0 {
				t.Fatalf("success with response %d", res.ResponseMS)
			}
		}
		if total >= 300 {
			break
		}
	}
	rate := float64(succ) / float64(total)
	if rate < 0.7 {
		t.Errorf("ASAP(FLD) success %.2f after warm-up, want high", rate)
	}
	if succ > 0 && float64(oneHop)/float64(succ) < 0.6 {
		t.Errorf("one-hop fraction %.2f, ASAP should resolve mostly locally", float64(oneHop)/float64(succ))
	}
}

func TestSearchCostTiny(t *testing.T) {
	s, _ := attach(t, RW)
	var total int64
	count := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		res := s.Search(ev)
		total += res.Bytes
		count++
		if count >= 200 {
			break
		}
	}
	mean := float64(total) / float64(count)
	// A flood in this overlay costs ≈2,000 messages ≈ 180 KB; ASAP
	// searches must be orders of magnitude below that.
	if mean > 20_000 {
		t.Errorf("mean ASAP search cost %.0f B, want ≪ flooding", mean)
	}
	if mean == 0 {
		t.Error("searches cost nothing at all")
	}
}

func TestSearchFailsOnForeignTerm(t *testing.T) {
	s, _ := attach(t, RW)
	res := s.Search(&trace.Event{Time: 0, Kind: trace.Query, Node: 0, Terms: []content.Keyword{0xFFFFFF0}})
	if res.Success {
		t.Error("search succeeded for a term nobody shares")
	}
}

func TestContentChangePropagatesPatch(t *testing.T) {
	s, sys := attach(t, FLD)
	// Find a live sharer and one of its docs' keywords that is rare.
	var node overlay.NodeID = -1
	for n := 0; n < testTr.InitialLive; n++ {
		if len(sys.Docs(overlay.NodeID(n))) > 0 {
			node = overlay.NodeID(n)
			break
		}
	}
	if node < 0 {
		t.Fatal("no sharer")
	}
	before := sys.Load.TotalBytes(metrics.Mask(metrics.MAdPatch))

	// Give the node a brand-new document (simulate a content add).
	var newDoc content.DocID
	found := false
	for d := 0; d < testU.NumDocs(); d++ {
		if !sys.HasDoc(node, content.DocID(d)) && sys.Interests(node).Has(testU.ClassOf(content.DocID(d))) {
			newDoc = content.DocID(d)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no addable doc")
	}
	ev := trace.Event{Time: 5000, Kind: trace.ContentAdd, Node: node, Doc: newDoc}
	sys.ApplyEvent(&ev)
	s.ContentChanged(5000, node, newDoc, true)

	after := sys.Load.TotalBytes(metrics.Mask(metrics.MAdPatch))
	if after <= before {
		t.Fatal("content change delivered no patch ad")
	}

	// The node itself must now answer confirmations for the new doc.
	kws := testU.Keywords(newDoc)
	if !sys.NodeMatches(node, kws) {
		t.Fatal("system state missing new doc")
	}

	// A peer that cached the patched ad finds the new keywords in it.
	pub := s.publishedSnapshot(node)
	if pub == nil {
		t.Fatal("no published snapshot after change")
	}
	if !pub.filter.ContainsAllKeys(termKeys(kws)) {
		t.Fatal("published filter missing new doc's keywords")
	}
}

func TestJoinAdvertisesAndPullsAds(t *testing.T) {
	s, sys := attach(t, RW)
	joiner := overlay.NodeID(testTr.InitialLive)
	ev := trace.Event{Time: 2000, Kind: trace.Join, Node: joiner}
	sys.ApplyEvent(&ev)
	s.NodeJoined(2000, joiner)
	if s.CacheSize(joiner) == 0 {
		t.Error("joiner pulled no ads from neighbours")
	}
	if sys.Load.TotalBytes(metrics.Mask(metrics.MAdsRequest)) == 0 {
		t.Error("join produced no ads-request traffic")
	}
}

func TestRefreshTickProducesTraffic(t *testing.T) {
	s, sys := attach(t, RW)
	before := sys.Load.TotalBytes(metrics.Mask(metrics.MAdRefresh))
	for sec := 1; sec <= s.cfg.RefreshPeriodSec; sec++ {
		s.Tick(int64(sec) * 1000)
	}
	after := sys.Load.TotalBytes(metrics.Mask(metrics.MAdRefresh))
	if after <= before {
		t.Error("a full refresh period produced no refresh-ad traffic")
	}
}

func TestStaleAdsExpireAfterDeparture(t *testing.T) {
	s, sys := attach(t, FLD)
	// Find a source that some other node caches.
	var holder, src overlay.NodeID = -1, -1
	for n := 0; n < testTr.InitialLive && holder < 0; n++ {
		if ns := &s.nodes[n]; len(ns.live()) > 0 {
			holder, src = overlay.NodeID(n), ns.slab[ns.live()[0]].snap.src
		}
	}
	if holder < 0 {
		t.Fatal("no cached ads anywhere")
	}
	// The source departs; its ad is not refreshed again.
	sys.G.Leave(src)
	s.NodeLeft(1000, src)

	// Search far beyond the staleness window: the entry must be dropped.
	window := int64(s.cfg.StaleFactor*s.cfg.RefreshPeriodSec) * 1000
	s.Search(&trace.Event{Time: 1000 + 2*window, Kind: trace.Query, Node: holder, Terms: []content.Keyword{1}})
	if s.entry(holder, src) != nil {
		t.Error("departed source's ad survived far past the staleness window")
	}
}

func TestEndToEndRunAllVariants(t *testing.T) {
	for _, d := range DeliveryKinds {
		sys := sim.NewSystem(testU, testTr, overlay.Crawled, testNet, 3)
		sch := New(testConfig(d))
		sum := sim.Run(sys, sch, sim.RunOptions{})
		if sum.Requests == 0 {
			t.Fatalf("%v: no requests", d)
		}
		if sum.SuccessRate < 0.5 {
			t.Errorf("asap-%v success %.2f, want decent on 400 nodes", d, sum.SuccessRate)
		}
		if sum.MeanRespMS <= 0 {
			t.Errorf("asap-%v mean response %v", d, sum.MeanRespMS)
		}
		if sum.LoadMeanKBps <= 0 {
			t.Errorf("asap-%v zero load", d)
		}
		if sum.OneHopRate < 0.5 {
			t.Errorf("asap-%v one-hop rate %.2f, want mostly local", d, sum.OneHopRate)
		}
		// Breakdown mass sums to 1 over the ASAP mask.
		total := 0.0
		for c := 0; c < metrics.NumMsgClasses; c++ {
			total += sum.Breakdown[metrics.MsgClass(c)]
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("asap-%v breakdown mass %v", d, total)
		}
	}
}

func TestHopNeighborhoodRadii(t *testing.T) {
	s, sys := attach(t, RW)
	var p overlay.NodeID
	for n := 0; n < testTr.InitialLive; n++ {
		if sys.G.Alive(overlay.NodeID(n)) && len(sys.G.Neighbors(overlay.NodeID(n))) >= 2 {
			p = overlay.NodeID(n)
			break
		}
	}
	// Each radius gets its own scratch: the returned slices are
	// scratch-backed, and h1 must survive the h2 traversal.
	sc0, sc1, sc2 := newSearchScratch(), newSearchScratch(), newSearchScratch()
	h0, m0 := s.hopNeighborhood(0, p, 0, &sc0)
	if h0 != nil || m0 != 0 {
		t.Error("h=0 neighbourhood not empty")
	}
	h1, m1 := s.hopNeighborhood(0, p, 1, &sc1)
	h2, m2 := s.hopNeighborhood(0, p, 2, &sc2)
	if len(h1) == 0 || m1 != len(h1) {
		t.Errorf("h=1: %d targets %d msgs", len(h1), m1)
	}
	if len(h2) <= len(h1) {
		t.Errorf("h=2 (%d) not larger than h=1 (%d)", len(h2), len(h1))
	}
	if m2 <= m1 {
		t.Errorf("h=2 messages (%d) not above h=1 (%d)", m2, m1)
	}
	// h=2 path latencies are positive and include both hops.
	for _, tg := range h2 {
		if tg.pathLat <= 0 {
			t.Fatalf("non-positive path latency to %d", tg.node)
		}
	}
}

func TestVariableFiltersEndToEnd(t *testing.T) {
	cfg := testConfig(RW)
	cfg.VariableFilters = true
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 5)
	s := New(cfg)
	s.Attach(sys)

	// Published filters must use pool lengths matched to keyword sets —
	// small sharers get short filters.
	sawShort, sawAny := false, false
	for n := 0; n < testTr.InitialLive; n++ {
		snap := s.publishedSnapshot(overlay.NodeID(n))
		if snap == nil {
			continue
		}
		sawAny = true
		if snap.filter.Bits() < 11542 {
			sawShort = true
		}
	}
	if !sawAny {
		t.Fatal("nothing published")
	}
	if !sawShort {
		t.Error("no node used a short filter; variable sizing inert")
	}

	// Searches still work across heterogeneous filter lengths.
	succ, total := 0, 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		total++
		if s.Search(ev).Success {
			succ++
		}
		if total >= 200 {
			break
		}
	}
	if rate := float64(succ) / float64(total); rate < 0.5 {
		t.Errorf("variable-filter success %.2f, want comparable to fixed", rate)
	}

	// A content change that crosses a pool boundary ships a full-sized
	// patch (no cross-geometry patches) and search state stays coherent.
	var node overlay.NodeID = -1
	for n := 0; n < testTr.InitialLive; n++ {
		if len(sys.Docs(overlay.NodeID(n))) > 0 {
			node = overlay.NodeID(n)
			break
		}
	}
	if node < 0 {
		t.Fatal("no sharer")
	}
	added := 0
	for d := 0; d < testU.NumDocs() && added < 40; d++ {
		doc := content.DocID(d)
		if sys.HasDoc(node, doc) || !sys.Interests(node).Has(testU.ClassOf(doc)) {
			continue
		}
		ev := trace.Event{Time: 1000, Kind: trace.ContentAdd, Node: node, Doc: doc}
		sys.ApplyEvent(&ev)
		s.ContentChanged(1000, node, doc, true)
		added++
	}
	snap := s.publishedSnapshot(node)
	if snap == nil {
		t.Fatal("no snapshot after growth")
	}
	kws := testU.Keywords(sys.Docs(node)[0])
	if !snap.filter.ContainsAllKeys(termKeys(kws)) {
		t.Error("published filter lost keys across geometry growth")
	}
}

func TestFreeRiderAdvertisesNothing(t *testing.T) {
	s, sys := attach(t, RW)
	for n := 0; n < testTr.InitialLive; n++ {
		if len(sys.Docs(overlay.NodeID(n))) == 0 {
			if snap := s.publishedSnapshot(overlay.NodeID(n)); snap != nil {
				t.Fatalf("free-rider %d published an ad", n)
			}
			return
		}
	}
	t.Skip("no free-rider among initial nodes")
}
