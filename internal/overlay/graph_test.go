package overlay

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"asap/internal/netmodel"
)

var testNet = netmodel.Generate(netmodel.SmallConfig())

func testHosts(t *testing.T, n int, seed uint64) []netmodel.PhysID {
	t.Helper()
	return testNet.RandomNodes(n, rand.New(rand.NewPCG(seed, 0)))
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Random: "random", PowerLaw: "powerlaw", Crawled: "crawled", Kind(9): "invalid"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if len(Kinds) != 3 {
		t.Errorf("Kinds = %v, want the paper's three topologies", Kinds)
	}
}

func TestRandomTopologyShape(t *testing.T) {
	hosts := testHosts(t, 1200, 1)
	g := NewRandom(testNet, hosts, 1000, 5, rand.New(rand.NewPCG(1, 1)))
	if g.Kind() != Random {
		t.Errorf("Kind = %v", g.Kind())
	}
	if g.LiveCount() != 1000 {
		t.Errorf("LiveCount = %d, want 1000", g.LiveCount())
	}
	if d := g.AvgLiveDegree(); math.Abs(d-5) > 0.5 {
		t.Errorf("AvgLiveDegree = %.2f, want ≈5", d)
	}
	if lc := g.LargestComponent(); lc != 1000 {
		t.Errorf("LargestComponent = %d, want 1000 (connected)", lc)
	}
	// Reserves carry no edges and are dead.
	for v := 1000; v < 1200; v++ {
		if g.Alive(NodeID(v)) || g.Degree(NodeID(v)) != 0 {
			t.Fatalf("reserve node %d live or wired", v)
		}
	}
}

func TestPowerLawTopologyShape(t *testing.T) {
	hosts := testHosts(t, 1000, 2)
	g := NewPowerLaw(testNet, hosts, 1000, 5, 0.74, rand.New(rand.NewPCG(2, 2)))
	if d := g.AvgLiveDegree(); math.Abs(d-5) > 1.2 {
		t.Errorf("AvgLiveDegree = %.2f, want ≈5", d)
	}
	if lc := g.LargestComponent(); lc != 1000 {
		t.Errorf("LargestComponent = %d, want 1000", lc)
	}
	// Heavy tail: the max degree should far exceed the random topology's.
	maxDeg := 0
	for v := 0; v < 1000; v++ {
		if d := g.Degree(NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 50 {
		t.Errorf("max degree %d, expected rank-power-law hubs (≥50 at n=1000)", maxDeg)
	}
}

func TestCrawledTopologyShape(t *testing.T) {
	hosts := testHosts(t, 1000, 3)
	g := NewCrawled(testNet, hosts, 1000, CrawledAvgDegree, rand.New(rand.NewPCG(3, 3)))
	if d := g.AvgLiveDegree(); math.Abs(d-3.35) > 0.5 {
		t.Errorf("AvgLiveDegree = %.2f, want ≈3.35", d)
	}
	if lc := g.LargestComponent(); lc != 1000 {
		t.Errorf("LargestComponent = %d, want 1000", lc)
	}
	maxDeg := 0
	for v := 0; v < 1000; v++ {
		if d := g.Degree(NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 12 {
		t.Errorf("max degree %d, preferential attachment should grow hubs", maxDeg)
	}
}

func TestNewDispatch(t *testing.T) {
	hosts := testHosts(t, 300, 4)
	for _, k := range Kinds {
		g := New(k, testNet, hosts, 300, rand.New(rand.NewPCG(4, uint64(k))))
		if g.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, g.Kind())
		}
		if g.LargestComponent() != 300 {
			t.Errorf("%v topology disconnected", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New with invalid kind did not panic")
		}
	}()
	New(Kind(9), testNet, hosts, 300, rand.New(rand.NewPCG(0, 0)))
}

func TestAdjacencySymmetricNoSelfNoDup(t *testing.T) {
	hosts := testHosts(t, 600, 5)
	for _, k := range Kinds {
		g := New(k, testNet, hosts, 600, rand.New(rand.NewPCG(5, uint64(k))))
		for v := 0; v < 600; v++ {
			seen := map[NodeID]bool{}
			for _, u := range g.Neighbors(NodeID(v)) {
				if u == NodeID(v) {
					t.Fatalf("%v: self loop at %d", k, v)
				}
				if seen[u] {
					t.Fatalf("%v: duplicate edge %d–%d", k, v, u)
				}
				seen[u] = true
				if !g.hasEdge(u, NodeID(v)) {
					t.Fatalf("%v: asymmetric edge %d→%d", k, v, u)
				}
			}
		}
	}
}

func TestLatencyConsistentWithNet(t *testing.T) {
	hosts := testHosts(t, 100, 6)
	g := NewRandom(testNet, hosts, 100, 5, rand.New(rand.NewPCG(6, 6)))
	for i := 0; i < 50; i++ {
		a, b := NodeID(i), NodeID(99-i)
		want := testNet.LocDistance(testNet.Resolve(g.Host(a)), testNet.Resolve(g.Host(b)))
		if got := g.Latency(a, b); got != want {
			t.Fatalf("Latency(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestLeaveDetaches(t *testing.T) {
	hosts := testHosts(t, 200, 7)
	g := NewRandom(testNet, hosts, 200, 5, rand.New(rand.NewPCG(7, 7)))
	victim := NodeID(10)
	neighbors := append([]NodeID(nil), g.Neighbors(victim)...)
	if len(neighbors) == 0 {
		t.Fatal("victim has no neighbours; bad test setup")
	}
	before := g.LiveCount()
	g.Leave(victim)
	if g.Alive(victim) {
		t.Error("victim still alive")
	}
	if g.LiveCount() != before-1 {
		t.Errorf("LiveCount = %d, want %d", g.LiveCount(), before-1)
	}
	if g.Degree(victim) != 0 {
		t.Errorf("victim keeps %d edges", g.Degree(victim))
	}
	for _, u := range neighbors {
		for _, w := range g.Neighbors(u) {
			if w == victim {
				t.Fatalf("node %d still links to departed %d", u, victim)
			}
		}
	}
	// Idempotent.
	g.Leave(victim)
	if g.LiveCount() != before-1 {
		t.Error("double Leave changed live count")
	}
}

func TestJoinWires(t *testing.T) {
	hosts := testHosts(t, 300, 8)
	g := NewRandom(testNet, hosts, 250, 5, rand.New(rand.NewPCG(8, 8)))
	rng := rand.New(rand.NewPCG(9, 9))
	joiner := NodeID(260)
	ns := g.Join(joiner, rng)
	if !g.Alive(joiner) {
		t.Fatal("joiner not alive")
	}
	if len(ns) == 0 {
		t.Fatal("joiner got no neighbours")
	}
	if len(ns) > 6 {
		t.Errorf("joiner got %d neighbours, want ≈5", len(ns))
	}
	for _, u := range ns {
		if !g.Alive(u) {
			t.Errorf("joiner wired to dead node %d", u)
		}
		if !g.hasEdge(u, joiner) {
			t.Errorf("join edge %d–%d not symmetric", joiner, u)
		}
	}
	// Joining a live node is a no-op.
	if got := g.Join(joiner, rng); got != nil {
		t.Error("Join on live node returned neighbours")
	}
}

func TestChurnSequenceKeepsInvariants(t *testing.T) {
	hosts := testHosts(t, 500, 10)
	g := NewCrawled(testNet, hosts, 400, CrawledAvgDegree, rand.New(rand.NewPCG(10, 10)))
	rng := rand.New(rand.NewPCG(11, 11))
	joined := 400
	for i := 0; i < 300; i++ {
		if rng.Float64() < 0.5 && joined < 500 {
			g.Join(NodeID(joined), rng)
			joined++
		} else {
			g.Leave(NodeID(rng.IntN(joined)))
		}
	}
	// All invariants: symmetric edges among live nodes, live count sane.
	count := 0
	for v := 0; v < g.N(); v++ {
		if g.Alive(NodeID(v)) {
			count++
		}
		for _, u := range g.Neighbors(NodeID(v)) {
			if !g.hasEdge(u, NodeID(v)) {
				t.Fatalf("asymmetric edge %d–%d after churn", v, u)
			}
		}
	}
	if count != g.LiveCount() {
		t.Errorf("LiveCount = %d, recount = %d", g.LiveCount(), count)
	}
}

func TestDegreeHistogram(t *testing.T) {
	hosts := testHosts(t, 200, 12)
	g := NewRandom(testNet, hosts, 200, 5, rand.New(rand.NewPCG(12, 12)))
	h := g.DegreeHistogram(20)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 200 {
		t.Errorf("histogram mass %d, want 200", total)
	}
}

func TestGeneratorsPanicOnBadInitial(t *testing.T) {
	hosts := testHosts(t, 10, 13)
	for _, initial := range []int{0, 1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("initial=%d did not panic", initial)
				}
			}()
			NewRandom(testNet, hosts, initial, 5, rand.New(rand.NewPCG(1, 1)))
		}()
	}
}

func TestPowerLawDegreesCalibration(t *testing.T) {
	degrees := powerLawDegrees(0.74, 5, 10000)
	total := 0
	for i, d := range degrees {
		if d < 1 {
			t.Fatalf("degree %d at rank %d below 1", d, i+1)
		}
		if i > 0 && d > degrees[i-1] {
			t.Fatalf("degrees not decreasing at rank %d", i+1)
		}
		total += d
	}
	mean := float64(total) / 10000
	if math.Abs(mean-5) > 0.5 {
		t.Errorf("calibrated mean degree %.2f, want ≈5", mean)
	}
	if degrees[0] < 100 {
		t.Errorf("top-rank degree %d, want a genuine hub (≥100 at n=10000)", degrees[0])
	}
}

func TestStringer(t *testing.T) {
	hosts := testHosts(t, 100, 14)
	g := NewRandom(testNet, hosts, 100, 5, rand.New(rand.NewPCG(14, 14)))
	if s := g.String(); s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkNewRandom10k(b *testing.B) {
	nw := netmodel.Generate(netmodel.DefaultConfig())
	hosts := nw.RandomNodes(10000, rand.New(rand.NewPCG(1, 0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewRandom(nw, hosts, 10000, 5, rand.New(rand.NewPCG(uint64(i), 0)))
	}
}

// snapshotAdj copies every adjacency list so later mutations can be
// detected.
func snapshotAdj(g *Graph) [][]NodeID {
	out := make([][]NodeID, g.N())
	for v := range out {
		out[v] = append([]NodeID(nil), g.Neighbors(NodeID(v))...)
	}
	return out
}

func sameStructure(a, b *Graph) bool {
	if a.N() != b.N() || a.LiveCount() != b.LiveCount() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		id := NodeID(v)
		if a.Alive(id) != b.Alive(id) || !slices.Equal(a.Neighbors(id), b.Neighbors(id)) {
			return false
		}
	}
	return true
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	hosts := testHosts(t, 400, 20)
	for _, k := range Kinds {
		g := New(k, testNet, hosts, 350, rand.New(rand.NewPCG(20, uint64(k))))
		c := g.Clone()
		if c.Kind() != g.Kind() || !sameStructure(g, c) {
			t.Fatalf("%v: clone differs from original", k)
		}
		if c.Host(7) != g.Host(7) || c.TargetDegree() != g.TargetDegree() {
			t.Fatalf("%v: clone lost host mapping or degree target", k)
		}
		// Churn the original; the clone must not move.
		before := snapshotAdj(c)
		beforeLive := c.LiveCount()
		rng := rand.New(rand.NewPCG(21, 21))
		for i := 0; i < 50; i++ {
			g.Leave(NodeID(rng.IntN(350)))
		}
		for i := 350; i < 380; i++ {
			g.Join(NodeID(i), rng)
		}
		if c.LiveCount() != beforeLive {
			t.Fatalf("%v: churning original changed clone's live count", k)
		}
		for v := range before {
			if !slices.Equal(before[v], c.Neighbors(NodeID(v))) {
				t.Fatalf("%v: churning original rewired clone at node %d", k, v)
			}
		}
	}
}

// TestCloneReplaysLikeOriginal: the clone carries the original's structural
// RNG state, so identical churn sequences produce identical graphs — the
// property RunMatrix relies on to reuse one generated topology per scheme.
// Super-peer graphs exercise the internal RNG hardest (leaf rehoming on
// super-peer departure draws from it).
func TestCloneReplaysLikeOriginal(t *testing.T) {
	hosts := testHosts(t, 400, 22)
	graphs := map[string]*Graph{
		"crawled":   New(Crawled, testNet, hosts, 350, rand.New(rand.NewPCG(22, 0))),
		"superpeer": NewSuperPeer(testNet, hosts, 350, DefaultSuperFraction, DefaultSuperDegree, rand.New(rand.NewPCG(22, 1))),
	}
	churn := func(g *Graph) {
		rng := rand.New(rand.NewPCG(23, 23))
		joined := 350
		for i := 0; i < 250; i++ {
			if rng.Float64() < 0.5 && joined < 400 {
				g.Join(NodeID(joined), rng)
				joined++
			} else {
				g.Leave(NodeID(rng.IntN(joined)))
			}
		}
	}
	for name, g := range graphs {
		c := g.Clone()
		churn(g)
		churn(c)
		if !sameStructure(g, c) {
			t.Errorf("%s: identical churn diverged between original and clone", name)
		}
		if !slices.Equal(g.TakeRehomed(), c.TakeRehomed()) {
			t.Errorf("%s: rehomed leaves diverged", name)
		}
	}
}

func TestTargetDegree(t *testing.T) {
	hosts := testHosts(t, 50, 40)
	g := NewRandom(testNet, hosts, 50, 5, rand.New(rand.NewPCG(40, 40)))
	if g.TargetDegree() != 5 {
		t.Errorf("TargetDegree = %v, want 5", g.TargetDegree())
	}
}

// TestPickNeighborAvoidsBacktrack walks every choice PickNeighbor can be
// handed: a walker never steps back to prev while another neighbour is
// live, every other neighbour is reachable by exactly one choice, prev is
// the move only when it is the sole neighbour, and an empty view is a dead
// end that asks for no choice.
func TestPickNeighborAvoidsBacktrack(t *testing.T) {
	view := []NodeID{7, 3, 9, 4, 12}
	for pi := -1; pi < len(view); pi++ {
		prev := NodeID(99) // not a neighbour: every neighbour is a choice
		if pi >= 0 {
			prev = view[pi]
		}
		want := len(view)
		if pi >= 0 {
			want--
		}
		hit := map[int]bool{}
		for k := 0; k < want; k++ {
			i := PickNeighbor(view, prev, func(n int) int {
				if n != want {
					t.Fatalf("prev at %d: asked to choose among %d, want %d", pi, n, want)
				}
				return k
			})
			if i < 0 || i >= len(view) || view[i] == prev || hit[i] {
				t.Fatalf("prev at %d, choice %d: picked index %d", pi, k, i)
			}
			hit[i] = true
		}
	}
	never := func(int) int { t.Fatal("a forced move drew a choice"); return 0 }
	if i := PickNeighbor([]NodeID{5}, 5, never); i != 0 {
		t.Errorf("sole neighbour prev: picked %d, want 0 (backtrack)", i)
	}
	if i := PickNeighbor(nil, 5, never); i != -1 {
		t.Errorf("empty view: picked %d, want -1", i)
	}
}
