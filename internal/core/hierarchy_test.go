package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// superSystem builds a super-peer system over the shared test universe
// and trace.
func superSystem(t *testing.T, seed uint64) *sim.System {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x1234))
	hosts := testNet.RandomNodes(len(testTr.Peers), rng)
	g := overlay.NewSuperPeer(testNet, hosts, testTr.InitialLive,
		overlay.DefaultSuperFraction, overlay.DefaultSuperDegree, rng)
	return sim.NewSystemWithGraph(testU, testTr, g)
}

func TestHierarchicalOnlySupersPublishAndCache(t *testing.T) {
	sys := superSystem(t, 2)
	s := New(testConfig(RW))
	s.Attach(sys)
	for n := 0; n < testTr.InitialLive; n++ {
		node := overlay.NodeID(n)
		if sys.G.IsSuper(node) {
			continue
		}
		if s.publishedSnapshot(node) != nil {
			t.Fatalf("leaf %d published an ad", n)
		}
		if s.CacheSize(node) != 0 {
			t.Fatalf("leaf %d cached %d ads", n, s.CacheSize(node))
		}
	}
	published, cached := 0, 0
	for _, sp := range sys.G.Supers() {
		if s.publishedSnapshot(sp) != nil {
			published++
		}
		if s.CacheSize(sp) > 0 {
			cached++
		}
	}
	if published == 0 || cached == 0 {
		t.Errorf("supers published=%d cached=%d, want both positive", published, cached)
	}
}

func TestHierarchicalAggregateAdsCoverLeafContent(t *testing.T) {
	sys := superSystem(t, 3)
	s := New(testConfig(RW))
	s.Attach(sys)
	// Find a leaf with docs; its super peer's filter must contain the
	// leaf's keywords.
	for n := 0; n < testTr.InitialLive; n++ {
		leaf := overlay.NodeID(n)
		if sys.G.IsSuper(leaf) || len(sys.Docs(leaf)) == 0 {
			continue
		}
		sp := sys.G.SuperOf(leaf)
		snap := s.publishedSnapshot(sp)
		if snap == nil {
			t.Fatalf("super %d of sharing leaf %d published nothing", sp, leaf)
		}
		kws := testU.Keywords(sys.Docs(leaf)[0])
		if !filterMatches(snap.filter, kws) {
			t.Fatalf("super %d's aggregate filter misses leaf %d's keywords", sp, leaf)
		}
		if !s.groupMatches(sp, kws) {
			t.Fatal("groupMatches misses leaf content")
		}
		return
	}
	t.Fatal("no sharing leaf found")
}

func TestHierarchicalSearchFromLeaf(t *testing.T) {
	sys := superSystem(t, 4)
	s := New(testConfig(RW))
	s.Attach(sys)
	succ, total, viaSuper := 0, 0, 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		total++
		res := s.Search(ev)
		if res.Success {
			succ++
			if !sys.G.IsSuper(ev.Node) && res.Hops >= 2 {
				viaSuper++
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
	if rate < 0.6 {
		t.Errorf("hierarchical success %.2f, want decent", rate)
	}
	if viaSuper == 0 {
		t.Error("no leaf search routed through a super peer")
	}
}

func TestHierarchicalContentChangeRepublishesSuper(t *testing.T) {
	sys := superSystem(t, 5)
	s := New(testConfig(RW))
	s.Attach(sys)
	var leaf overlay.NodeID = -1
	for n := 0; n < testTr.InitialLive; n++ {
		if !sys.G.IsSuper(overlay.NodeID(n)) && sys.G.Alive(overlay.NodeID(n)) {
			leaf = overlay.NodeID(n)
			break
		}
	}
	sp := sys.G.SuperOf(leaf)
	before := s.publishedSnapshot(sp)

	var doc content.DocID
	found := false
	for d := 0; d < testU.NumDocs(); d++ {
		if !slices.Contains(sys.Docs(leaf), content.DocID(d)) && sys.Interests(leaf).Has(testU.ClassOf(content.DocID(d))) {
			doc = content.DocID(d)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no addable doc")
	}
	ev := trace.Event{Time: 3000, Kind: trace.ContentAdd, Node: leaf, Doc: doc}
	sys.ApplyEvent(&ev)
	s.ContentChanged(3000, leaf, doc, true)

	after := s.publishedSnapshot(sp)
	if after == nil || (before != nil && after.version == before.version) {
		t.Fatal("super peer did not republish after leaf content change")
	}
	if !filterMatches(after.filter, testU.Keywords(doc)) {
		t.Fatal("republished aggregate misses the new doc")
	}
}

func TestHierarchicalSuperDepartureRecovery(t *testing.T) {
	sys := superSystem(t, 6)
	s := New(testConfig(RW))
	s.Attach(sys)
	// Pick a super with sharing leaves.
	var victim overlay.NodeID = -1
	var sharerLeaf overlay.NodeID = -1
	for _, sp := range sys.G.Supers() {
		for _, leaf := range sys.G.LeavesOf(sp) {
			if len(sys.Docs(leaf)) > 0 {
				victim, sharerLeaf = sp, leaf
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no super with a sharing leaf")
	}
	ev := trace.Event{Time: 4000, Kind: trace.Leave, Node: victim}
	sys.ApplyEvent(&ev)
	s.NodeLeft(4000, victim)

	newSP := sys.G.SuperOf(sharerLeaf)
	if newSP < 0 || newSP == victim {
		t.Fatal("leaf not rehomed")
	}
	snap := s.publishedSnapshot(newSP)
	if snap == nil {
		t.Fatal("new super published nothing after adoption")
	}
	kws := testU.Keywords(sys.Docs(sharerLeaf)[0])
	if !filterMatches(snap.filter, kws) {
		t.Error("adopting super's ad misses the migrated leaf's content")
	}
}

func TestHierarchicalEndToEndRun(t *testing.T) {
	sys := superSystem(t, 7)
	sch := New(testConfig(RW))
	sum := sim.Run(sys, sch, sim.RunOptions{})
	if sum.Requests == 0 {
		t.Fatal("no requests")
	}
	if sum.SuccessRate < 0.5 {
		t.Errorf("hierarchical end-to-end success %.2f", sum.SuccessRate)
	}
	if sum.LoadMeanKBps <= 0 {
		t.Error("no load")
	}
	if sum.Topology != "superpeer" {
		t.Errorf("topology label %q", sum.Topology)
	}
	// Breakdown mass sums to 1.
	total := 0.0
	for c := 0; c < metrics.NumMsgClasses; c++ {
		total += sum.Breakdown[metrics.MsgClass(c)]
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("breakdown mass %v", total)
	}
}

// TestLeafResponseCountsLostUplinks: a leaf whose first uplinks to its
// super peer are lost waits a round trip plus RetryTimeoutMS for each
// before the next try, and its answer is timed from the query, so its
// response covers those waits as well as the uplink and the downlink.
func TestLeafResponseCountsLostUplinks(t *testing.T) {
	sys := superSystem(t, 5)
	s := New(testConfig(RW))
	s.Attach(sys)
	pl := faults.New(faults.Config{Seed: 5, LossRate: 0.3})
	sys.SetFaults(pl)
	checked := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query || !sys.G.Alive(ev.Node) {
			continue
		}
		p := ev.Node
		rp := sys.G.SuperOf(p)
		if rp < 0 || rp == p {
			continue
		}
		uplinkMS := sim.Clock(sys.Latency(p, rp))
		key := faults.Key(ev.Time, p)
		lost := 0
		for lost < s.cfg.RetryAttempts && pl.Drop(metrics.MConfirm, p, rp, key, legSeq(lost, legUplink)) {
			lost++
		}
		res := s.Search(ev)
		if lost == 0 || !res.Success {
			continue
		}
		waits := sim.Clock(lost) * (2*uplinkMS + sim.Clock(s.cfg.RetryTimeoutMS))
		if res.ResponseMS < waits+2*uplinkMS {
			t.Fatalf("query %d: leaf %d answered in %d ms after %d lost uplinks; want ≥ %d (waits %d + uplink and downlink %d)",
				i, p, res.ResponseMS, lost, waits+2*uplinkMS, waits, 2*uplinkMS)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no leaf query succeeded after a lost uplink: too little exercised")
	}
	t.Logf("%d leaf queries answered after a lost uplink", checked)
}
