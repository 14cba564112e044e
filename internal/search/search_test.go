package search

import (
	"math/rand/v2"
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
		cfg.NumQueries = 800
		cfg.NumJoins = 30
		cfg.NumLeaves = 30
		tr, err := trace.Build(testU, cfg)
		if err != nil {
			panic(err)
		}
		return tr
	}()
)

func newSys(t *testing.T, kind overlay.Kind) *sim.System {
	t.Helper()
	return sim.NewSystem(testU, testTr, kind, testNet, 1)
}

// traceQueries returns the test trace's query events in trace order.
func traceQueries() []*trace.Event {
	var queries []*trace.Event
	for i := range testTr.Events {
		if testTr.Events[i].Kind == trace.Query {
			queries = append(queries, &testTr.Events[i])
		}
	}
	return queries
}

func firstQuery(t *testing.T) *trace.Event {
	t.Helper()
	for i := range testTr.Events {
		if testTr.Events[i].Kind == trace.Query {
			return &testTr.Events[i]
		}
	}
	t.Fatal("no query in trace")
	return nil
}

func TestFloodingFindsPlantedDoc(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	ev := firstQuery(t)
	res := f.Search(ev)
	if !res.Success {
		t.Fatal("flooding failed on a satisfiable query in a connected 400-node overlay")
	}
	if res.ResponseMS <= 0 {
		t.Errorf("ResponseMS = %d, want positive", res.ResponseMS)
	}
	if res.Hops < 1 || res.Hops > f.TTL {
		t.Errorf("Hops = %d, want within [1,%d]", res.Hops, f.TTL)
	}
	if res.Bytes <= 0 {
		t.Error("no query bytes accounted")
	}
	// TTL-6 flooding on a connected degree-5 overlay touches nearly every
	// node: expect cost of the order of edges × query size.
	if res.Bytes < int64(200*sim.QueryBytes(len(ev.Terms))) {
		t.Errorf("flood cost %d suspiciously small", res.Bytes)
	}
}

func TestFloodingFailsOnForeignTerms(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	ev := &trace.Event{Time: 0, Kind: trace.Query, Node: 0, Terms: []content.Keyword{0xFFFFFFF}}
	res := f.Search(ev)
	if res.Success {
		t.Error("flooding succeeded on a term no document has")
	}
	if res.Bytes == 0 {
		t.Error("failed flood still floods; bytes must be accounted")
	}
}

func TestFloodingDeterministic(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	ev := firstQuery(t)
	a, b := f.Search(ev), f.Search(ev)
	if a != b {
		t.Errorf("flooding not deterministic: %+v vs %+v", a, b)
	}
}

func TestFloodingZeroTTL(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := &Flooding{TTL: 0}
	f.Attach(sys)
	res := f.Search(firstQuery(t))
	if res.Success || res.Bytes != 0 {
		t.Errorf("TTL-0 flood produced %+v", res)
	}
}

func TestRandomWalkBehaviour(t *testing.T) {
	sys := newSys(t, overlay.Random)
	w := NewRandomWalk(1)
	w.Attach(sys)

	succ, total := 0, 0
	var bytes int64
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		total++
		res := w.Search(ev)
		if res.Success {
			succ++
			if res.ResponseMS <= 0 {
				t.Fatalf("success with non-positive response %d", res.ResponseMS)
			}
			if res.Hops < 1 || res.Hops > w.TTL {
				t.Fatalf("hops %d out of range", res.Hops)
			}
		}
		maxBytes := int64((w.Walkers*w.TTL + w.Walkers)) * int64(sim.QueryBytes(len(ev.Terms)))
		if res.Bytes > maxBytes {
			t.Fatalf("walk cost %d exceeds ceiling %d", res.Bytes, maxBytes)
		}
		bytes += res.Bytes
		if total >= 200 {
			break
		}
	}
	rate := float64(succ) / float64(total)
	// 5 walkers × 1024 steps in a 400-node overlay should succeed often;
	// the paper's failure regime needs the full-scale 10k overlay.
	if rate < 0.5 {
		t.Errorf("random-walk success %.2f too low for a 400-node overlay", rate)
	}
	if bytes == 0 {
		t.Error("no walk traffic")
	}
}

func TestRandomWalkDeterministicPerQuery(t *testing.T) {
	sys := newSys(t, overlay.Random)
	w := NewRandomWalk(7)
	w.Attach(sys)
	ev := firstQuery(t)
	a, b := w.Search(ev), w.Search(ev)
	if a != b {
		t.Errorf("random walk not deterministic per query: %+v vs %+v", a, b)
	}
}

func TestRandomWalkCheaperThanFlooding(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	w := NewRandomWalk(1)
	w.Attach(sys)

	var fBytes, wBytes int64
	count := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		fBytes += f.Search(ev).Bytes
		wBytes += w.Search(ev).Bytes
		if count++; count >= 100 {
			break
		}
	}
	if wBytes >= fBytes {
		t.Errorf("random walk (%d B) not cheaper than flooding (%d B)", wBytes, fBytes)
	}
}

func TestGSABudgetRespected(t *testing.T) {
	sys := newSys(t, overlay.Random)
	g := NewGSA(1)
	g.Attach(sys)
	count := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		res := g.Search(ev)
		ceiling := int64(g.Budget+8) * int64(sim.QueryBytes(len(ev.Terms)))
		if res.Bytes > ceiling {
			t.Fatalf("GSA cost %d exceeds budget ceiling %d", res.Bytes, ceiling)
		}
		if count++; count >= 200 {
			break
		}
	}
}

func TestGSASucceedsOften(t *testing.T) {
	sys := newSys(t, overlay.Random)
	g := NewGSA(1)
	g.Attach(sys)
	succ, total := 0, 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		total++
		if g.Search(ev).Success {
			succ++
		}
		if total >= 200 {
			break
		}
	}
	if rate := float64(succ) / float64(total); rate < 0.5 {
		t.Errorf("GSA success %.2f too low for a 400-node overlay (budget 8000)", rate)
	}
}

func TestGSANoLiveNeighbors(t *testing.T) {
	sys := newSys(t, overlay.Random)
	g := NewGSA(1)
	g.Attach(sys)
	ev := firstQuery(t)
	// Isolate the requester by removing its entire neighbourhood.
	isolated := ev.Node
	for len(sys.G.Neighbors(isolated)) > 0 {
		sys.G.Leave(sys.G.Neighbors(isolated)[0])
	}
	res := g.Search(ev)
	if res.Success || res.Bytes != 0 {
		t.Errorf("isolated requester produced %+v", res)
	}
}

func TestEndToEndRunAllBaselines(t *testing.T) {
	for _, mk := range []func() sim.Scheme{
		func() sim.Scheme { return NewFlooding() },
		func() sim.Scheme { return NewRandomWalk(3) },
		func() sim.Scheme { return NewGSA(3) },
	} {
		sch := mk()
		sys := sim.NewSystem(testU, testTr, overlay.Crawled, testNet, 2)
		sum := sim.Run(sys, sch, sim.RunOptions{})
		if sum.Requests == 0 {
			t.Fatalf("%s: no requests replayed", sch.Name())
		}
		if sum.SuccessRate <= 0 || sum.SuccessRate > 1 {
			t.Errorf("%s: success rate %v", sch.Name(), sum.SuccessRate)
		}
		if sum.MeanRespMS <= 0 {
			t.Errorf("%s: mean response %v", sch.Name(), sum.MeanRespMS)
		}
		if sum.LoadMeanKBps <= 0 {
			t.Errorf("%s: zero system load", sch.Name())
		}
		// Baseline load must exclude hit replies and control traffic.
		if sys.Load.TotalBytes(metrics.Mask(metrics.MQueryHit)) == 0 {
			t.Errorf("%s: no hit replies accounted at all", sch.Name())
		}
		if sys.Load.TotalBytes(metrics.BaselineLoadMask) >= sys.Load.TotalBytes(metrics.AllMask) {
			t.Errorf("%s: load mask does not exclude replies", sch.Name())
		}
	}
}

func TestPickNeighborAvoidsBacktrack(t *testing.T) {
	sys := newSys(t, overlay.Random)
	w := NewRandomWalk(1)
	w.Attach(sys)
	// Statistical check: walk from a node with ≥3 live neighbours and
	// verify the immediate predecessor is never chosen when alternatives
	// exist (pickNeighbor is exercised through Search determinism tests;
	// here we call it directly).
	var cur overlay.NodeID = -1
	for v := 0; v < sys.NumNodes(); v++ {
		live := 0
		for _, nb := range sys.G.Neighbors(overlay.NodeID(v)) {
			if sys.G.Alive(nb) {
				live++
			}
		}
		if live >= 3 {
			cur = overlay.NodeID(v)
			break
		}
	}
	if cur < 0 {
		t.Skip("no node with 3 live neighbours")
	}
	prev := sys.G.Neighbors(cur)[0]
	nbs := sys.G.LiveNeighbors(cur)
	rng := rand.New(rand.NewPCG(42, 42))
	for i := 0; i < 200; i++ {
		if got := nbs[pickNeighbor(nbs, prev, rng)]; got == prev {
			t.Fatal("pickNeighbor backtracked despite alternatives")
		}
	}
}

func TestScratchEpochWrap(t *testing.T) {
	sc := &scratch{mark: make([]uint64, 4), cand: make([]uint32, 4)}
	sc.epoch = ^uint32(0) - 1
	sc.begin(0)
	sc.visit(1)
	if !sc.claim(2, 7) || sc.claim(2, 7) || !sc.claim(2, 6) {
		t.Fatal("pending bookkeeping broken near wrap")
	}
	if !sc.visited(1) || sc.visited(2) || sc.claim(1, 0) {
		t.Fatal("visit bookkeeping broken near wrap")
	}
	sc.begin(0) // wraps to 0 → forced clear to epoch 1
	if sc.visited(1) || !sc.claim(2, 9) {
		t.Fatal("stale mark survived epoch wrap")
	}
}

// Over the whole trace and across an epoch wrap, the resolved test agrees
// with the per-node ground truth on every node: a candidate stamp neither
// hides a match nor, left over from an earlier query, invents one.
func TestScratchMatchesEqualsNodeMatches(t *testing.T) {
	sys := newSys(t, overlay.Crawled)
	sc := newScratch(sys.NumNodes())
	for n := range sc.cand {
		sc.cand[n] = uint32(1 + n%64) // stale candidates of the epochs the wrap restarts at
	}
	queries := traceQueries()
	sc.epoch = ^uint32(0) - uint32(len(queries)/2)
	check := func(terms []content.Keyword) (matched int) {
		sc.begin(0)
		sc.resolve(sys, terms)
		for n := 0; n < sys.NumNodes(); n++ {
			got, want := sc.matches(sys, overlay.NodeID(n)), sys.NodeMatches(overlay.NodeID(n), terms)
			if got != want {
				t.Fatalf("epoch %d, query %v, node %d: matches = %v, NodeMatches = %v", sc.epoch, terms, n, got, want)
			}
			if got {
				matched++
			}
		}
		return matched
	}
	matched, multi := 0, 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			sys.ApplyEvent(ev)
			continue
		}
		matched += check(ev.Terms)
		if len(ev.Terms) > 1 {
			multi++
		}
		check(ev.Terms[:1]) // a stamp is the whole answer
		// The same terms crossed with the previous query's: mostly
		// candidates that fail verification.
		if i > 0 && len(testTr.Events[i-1].Terms) > 0 {
			check([]content.Keyword{ev.Terms[0], testTr.Events[i-1].Terms[0]})
		}
		check([]content.Keyword{ev.Terms[0], 0xFFFFFF})
	}
	check(nil)
	if sc.epoch > uint32(4*len(queries)) || matched == 0 || multi == 0 {
		t.Fatalf("epoch %d after %d queries (%d multi-term), %d matches: the wrap or the verified path was not exercised", sc.epoch, len(queries), multi, matched)
	}
}

// BenchmarkFloodingSearch also reports the copies a search sends and the
// time per copy, the cascade's own unit of work.
func BenchmarkFloodingSearch(b *testing.B) {
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
	f := NewFlooding()
	f.Attach(sys)
	queries := traceQueries()
	copies := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := queries[i%len(queries)]
		copies += f.Search(ev).Bytes / int64(sim.QueryBytes(len(ev.Terms)))
	}
	if copies > 0 {
		b.ReportMetric(float64(copies)/float64(b.N), "copies/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(copies), "ns/copy")
	}
}

func BenchmarkRandomWalkSearch(b *testing.B) {
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
	w := NewRandomWalk(1)
	w.Attach(sys)
	queries := traceQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Search(queries[i%len(queries)])
	}
}

func BenchmarkGSASearch(b *testing.B) {
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
	g := NewGSA(1)
	g.Attach(sys)
	queries := traceQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Search(queries[i%len(queries)])
	}
}
