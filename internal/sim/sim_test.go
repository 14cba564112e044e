package sim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/overlay"
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
)

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumNodes = 400
	cfg.NumQueries = 1200
	cfg.NumJoins = 40
	cfg.NumLeaves = 40
	tr, err := trace.Build(testU, cfg)
	if err != nil {
		t.Fatalf("trace.Build: %v", err)
	}
	return tr
}

func newTestSystem(t *testing.T) *System {
	t.Helper()
	return NewSystem(testU, testTrace(t), overlay.Random, testNet, 1)
}

func TestNewSystemState(t *testing.T) {
	sys := newTestSystem(t)
	if sys.NumNodes() != len(sys.Tr.Peers) {
		t.Errorf("NumNodes = %d, want %d", sys.NumNodes(), len(sys.Tr.Peers))
	}
	if sys.G.LiveCount() != sys.Tr.InitialLive {
		t.Errorf("LiveCount = %d, want %d", sys.G.LiveCount(), sys.Tr.InitialLive)
	}
	// Node contents mirror the universe peers.
	for n := 0; n < 20; n++ {
		peer := testU.Peer(sys.Tr.Peers[n])
		if len(sys.Docs(overlay.NodeID(n))) != len(peer.Docs) {
			t.Fatalf("node %d docs %d, want %d", n, len(sys.Docs(overlay.NodeID(n))), len(peer.Docs))
		}
		if sys.Interests(overlay.NodeID(n)) != peer.Interests {
			t.Fatalf("node %d interests mismatch", n)
		}
	}
}

func TestNodeMatches(t *testing.T) {
	sys := newTestSystem(t)
	// Find a sharing node and query its own docs.
	for n := 0; n < sys.NumNodes(); n++ {
		docs := sys.Docs(overlay.NodeID(n))
		if len(docs) == 0 {
			continue
		}
		d := docs[0]
		kws := testU.Keywords(d)
		if !sys.NodeMatches(overlay.NodeID(n), kws) {
			t.Fatalf("node %d does not match its own doc's full keyword set", n)
		}
		if !sys.NodeMatches(overlay.NodeID(n), kws[:1]) {
			t.Fatalf("node %d does not match single term", n)
		}
		if sys.NodeMatches(overlay.NodeID(n), []content.Keyword{0xFFFFFF}) {
			t.Fatalf("node %d matches foreign term", n)
		}
		if sys.NodeMatches(overlay.NodeID(n), nil) {
			t.Fatal("empty term list matched")
		}
		// Terms from two different docs that no single doc contains: mix a
		// real keyword with a foreign one.
		mixed := []content.Keyword{kws[0], 0xFFFFFF}
		if sys.NodeMatches(overlay.NodeID(n), mixed) {
			t.Fatal("mixed foreign term matched")
		}
		return
	}
	t.Fatal("no sharing node found")
}

func TestApplyContentEvents(t *testing.T) {
	sys := newTestSystem(t)
	var node overlay.NodeID = -1
	for n := 0; n < sys.NumNodes(); n++ {
		if len(sys.Docs(overlay.NodeID(n))) > 0 {
			node = overlay.NodeID(n)
			break
		}
	}
	if node < 0 {
		t.Fatal("no sharer")
	}
	d := sys.Docs(node)[0]
	kws := testU.Keywords(d)

	sys.ApplyEvent(&trace.Event{Kind: trace.ContentRemove, Node: node, Doc: d})
	if sys.HasDoc(node, d) {
		t.Fatal("doc still present after remove")
	}
	// The keyword may still match via other docs; verify via HasDoc only.
	sys.ApplyEvent(&trace.Event{Kind: trace.ContentAdd, Node: node, Doc: d})
	if !sys.HasDoc(node, d) {
		t.Fatal("doc absent after re-add")
	}
	if !sys.NodeMatches(node, kws) {
		t.Fatal("keyword index broken after remove/add cycle")
	}
	// Duplicate add is a no-op.
	before := len(sys.Docs(node))
	sys.ApplyEvent(&trace.Event{Kind: trace.ContentAdd, Node: node, Doc: d})
	if len(sys.Docs(node)) != before {
		t.Fatal("duplicate add changed contents")
	}
	// Removing an absent doc is a no-op.
	sys.ApplyEvent(&trace.Event{Kind: trace.ContentRemove, Node: node, Doc: 0xFFFFFF0})
	if len(sys.Docs(node)) != before {
		t.Fatal("absent remove changed contents")
	}
}

func TestApplyChurnEvents(t *testing.T) {
	sys := newTestSystem(t)
	live := sys.G.LiveCount()
	joiner := overlay.NodeID(sys.Tr.InitialLive)
	sys.ApplyEvent(&trace.Event{Kind: trace.Join, Node: joiner})
	if !sys.G.Alive(joiner) || sys.G.LiveCount() != live+1 {
		t.Fatal("join not applied")
	}
	sys.ApplyEvent(&trace.Event{Kind: trace.Leave, Node: joiner})
	if sys.G.Alive(joiner) || sys.G.LiveCount() != live {
		t.Fatal("leave not applied")
	}
}

func TestApplyEventRejectsQuery(t *testing.T) {
	sys := newTestSystem(t)
	defer func() {
		if recover() == nil {
			t.Error("ApplyEvent(Query) did not panic")
		}
	}()
	sys.ApplyEvent(&trace.Event{Kind: trace.Query})
}

func TestSizesModel(t *testing.T) {
	if QueryBytes(3) <= QueryBytes(1) {
		t.Error("query size not increasing in terms")
	}
	if FullAdBytes(1443) < 1443+HeaderBytes {
		t.Error("full ad smaller than its filter")
	}
	if RefreshAdBytes() >= FullAdBytes(1443) {
		t.Error("refresh ad not smaller than full ad")
	}
	if PatchAdBytes(10) >= FullAdBytes(1443) {
		t.Error("small patch not smaller than full ad")
	}
	if AdsReplyBytes(100) != HeaderBytes+100 {
		t.Error("ads reply size wrong")
	}
	if CheckBackBytes() != HeaderBytes || AdsRequestBytes() != HeaderBytes+InterestBytes {
		t.Error("control sizes wrong")
	}
	if ConfirmBytes(2) != HeaderBytes+2*TermBytes || ConfirmReplyBytes() != HeaderBytes+HitBytes {
		t.Error("confirm sizes wrong")
	}
	if QueryHitBytes() != HeaderBytes+HitBytes {
		t.Error("hit size wrong")
	}
}

// fakeScheme counts runner callbacks and returns canned results.
type fakeScheme struct {
	searches, events, ticks int
	attached                bool
}

func (f *fakeScheme) Name() string       { return "fake" }
func (f *fakeScheme) Attach(sys *System) { f.attached = true }
func (f *fakeScheme) Search(ev *trace.Event) metrics.SearchResult {
	f.searches++
	return metrics.SearchResult{Success: true, ResponseMS: 10, Bytes: 100, Hops: 1}
}
func (f *fakeScheme) ContentChanged(t Clock, n overlay.NodeID, d content.DocID, added bool) {
	f.events++
}
func (f *fakeScheme) NodeJoined(t Clock, n overlay.NodeID) { f.events++ }
func (f *fakeScheme) NodeLeft(t Clock, n overlay.NodeID)   { f.events++ }
func (f *fakeScheme) Tick(t Clock)                         { f.ticks++ }
func (f *fakeScheme) LoadMask() metrics.ClassMask          { return metrics.AllMask }

func TestRunnerDispatch(t *testing.T) {
	sys := newTestSystem(t)
	sch := &fakeScheme{}
	sum := Run(sys, sch, RunOptions{})
	st := sys.Tr.Stats()
	if !sch.attached {
		t.Error("Attach not called")
	}
	if sch.searches != st.Queries {
		t.Errorf("searches = %d, want %d", sch.searches, st.Queries)
	}
	wantEvents := st.ContentAdds + st.ContentRemoves + st.Joins + st.Leaves
	if sch.events != wantEvents {
		t.Errorf("state callbacks = %d, want %d", sch.events, wantEvents)
	}
	if sch.ticks == 0 {
		t.Error("no ticks fired")
	}
	if sum.Requests != st.Queries || sum.SuccessRate != 1 || sum.MeanRespMS != 10 {
		t.Errorf("summary wrong: %+v", sum)
	}
	if sum.Scheme != "fake" || sum.Topology != "random" {
		t.Errorf("labels wrong: %s/%s", sum.Scheme, sum.Topology)
	}
}

func TestRunnerLiveSeriesTracksChurn(t *testing.T) {
	sys := newTestSystem(t)
	Run(sys, &fakeScheme{}, RunOptions{})
	la := sys.Load
	nonzero := 0
	for s := 0; s < la.Seconds(); s++ {
		if la.Live(s) > 0 {
			nonzero++
		}
	}
	if nonzero < la.Seconds()-1 {
		t.Errorf("live counts recorded for %d of %d seconds", nonzero, la.Seconds())
	}
}

// TestStepperBatchCap: a capped Stepper returns every query exactly once,
// in trace order, in batches no longer than the cap.
func TestStepperBatchCap(t *testing.T) {
	const limit = 7
	sys := newTestSystem(t)
	st := NewStepper(sys, &fakeScheme{}, limit)
	var got []*trace.Event
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		if len(batch) > limit {
			t.Fatalf("batch of %d queries exceeds the cap %d", len(batch), limit)
		}
		got = append(got, batch...)
	}
	var want []*trace.Event
	for i := range sys.Tr.Events {
		if ev := &sys.Tr.Events[i]; ev.Kind == trace.Query {
			want = append(want, ev)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("capped stepper returned %d queries, want the trace's %d in order", len(got), len(want))
	}
}

func TestSystemRandomDifferentSeeds(t *testing.T) {
	tr := testTrace(t)
	a := NewSystem(testU, tr, overlay.Random, testNet, 1)
	b := NewSystem(testU, tr, overlay.Random, testNet, 2)
	same := true
	for n := 0; n < 50; n++ {
		if a.G.Host(overlay.NodeID(n)) != b.G.Host(overlay.NodeID(n)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical host placements")
	}
}

func TestNewSystemWithGraphValidatesSize(t *testing.T) {
	tr := testTrace(t)
	hosts := testNet.RandomNodes(10, newRng())
	g := overlay.NewRandom(testNet, hosts, 10, 3, newRng())
	defer func() {
		if recover() == nil {
			t.Error("mismatched graph size did not panic")
		}
	}()
	NewSystemWithGraph(testU, tr, g)
}

func TestSystemAccessors(t *testing.T) {
	sys := newTestSystem(t)
	if sys.InitialLive() != sys.Tr.InitialLive {
		t.Errorf("InitialLive = %d", sys.InitialLive())
	}
	if d := sys.Latency(0, 1); d <= 0 {
		t.Errorf("Latency(0,1) = %d", d)
	}
	if d := sys.Latency(3, 3); d != 0 {
		t.Errorf("self latency = %d", d)
	}
}

func newRng() *rand.Rand { return rand.New(rand.NewPCG(3, 3)) }

func BenchmarkNodeMatches(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.NumNodes = 400
	cfg.NumQueries = 100
	cfg.NumJoins = 40
	cfg.NumLeaves = 40
	tr, err := trace.Build(testU, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(testU, tr, overlay.Random, testNet, 1)
	var terms [][]content.Keyword
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.Query {
			terms = append(terms, tr.Events[i].Terms)
		}
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := overlay.NodeID(rng.IntN(sys.NumNodes()))
		_ = sys.NodeMatches(n, terms[i%len(terms)])
	}
}
