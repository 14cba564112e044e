package netmodel

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if got := c.NumTransit(); got != 144 {
		t.Errorf("NumTransit = %d, want 144", got)
	}
	if got := c.TotalNodes(); got != 51984 {
		t.Errorf("TotalNodes = %d, want 51,984 (paper §IV-A)", got)
	}
	if c.LatInterTransit != 50 || c.LatIntraTransit != 20 || c.LatTransitStub != 5 || c.LatIntraStub != 2 {
		t.Errorf("latencies %d/%d/%d/%d, want 50/20/5/2", c.LatInterTransit, c.LatIntraTransit, c.LatTransitStub, c.LatIntraStub)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.TransitDomains = 0 },
		func(c *Config) { c.TransitPerDomain = -1 },
		func(c *Config) { c.StubPerDomain = 0 },
		func(c *Config) { c.StubPerDomain = 256 },
		func(c *Config) { c.PIntraTransit = 1.5 },
		func(c *Config) { c.PIntraStub = -0.1 },
		func(c *Config) { c.LatIntraStub = -2 },
	}
	for i, m := range mods {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed Validate", i)
		}
	}
}

func TestGenerateFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale universe in -short mode")
	}
	nw := Generate(DefaultConfig())
	if nw.TotalNodes() != 51984 {
		t.Fatalf("TotalNodes = %d, want 51,984", nw.TotalNodes())
	}
	// Spot-check reachability: distances finite across the whole universe.
	rng := rand.New(rand.NewPCG(42, 0))
	for i := 0; i < 2000; i++ {
		a := PhysID(rng.IntN(nw.TotalNodes()))
		b := PhysID(rng.IntN(nw.TotalNodes()))
		d := nw.Distance(a, b)
		if d < 0 || d > 10000 {
			t.Fatalf("Distance(%d,%d) = %d, implausible", a, b, d)
		}
	}
}

func newSmall(t *testing.T) *Network {
	t.Helper()
	return Generate(SmallConfig())
}

func TestDistanceSelfZero(t *testing.T) {
	nw := newSmall(t)
	for _, id := range []PhysID{0, PhysID(nw.NumTransit()), PhysID(nw.TotalNodes() - 1)} {
		if d := nw.Distance(id, id); d != 0 {
			t.Errorf("Distance(%d,%d) = %d, want 0", id, id, d)
		}
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	nw := newSmall(t)
	n := nw.TotalNodes()
	prop := func(a, b uint32) bool {
		x, y := PhysID(int(a)%n), PhysID(int(b)%n)
		return nw.Distance(x, y) == nw.Distance(y, x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDistancePositiveBetweenDistinct(t *testing.T) {
	nw := newSmall(t)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 2000; i++ {
		a := PhysID(rng.IntN(nw.TotalNodes()))
		b := PhysID(rng.IntN(nw.TotalNodes()))
		if a == b {
			continue
		}
		if d := nw.Distance(a, b); d <= 0 {
			t.Fatalf("Distance(%d,%d) = %d, want > 0", a, b, d)
		}
	}
}

func TestIntraStubDistanceIsEvenSmallMultiple(t *testing.T) {
	nw := newSmall(t)
	cfg := nw.Config()
	// Two stub nodes in the same domain: distance = hops × 2 ms.
	base := PhysID(nw.NumTransit())
	for l := 1; l < cfg.StubPerDomain; l++ {
		d := nw.Distance(base, base+PhysID(l))
		if d%cfg.LatIntraStub != 0 {
			t.Errorf("intra-stub distance %d not a multiple of %d", d, cfg.LatIntraStub)
		}
		if d <= 0 || d > cfg.StubPerDomain*cfg.LatIntraStub {
			t.Errorf("intra-stub distance %d out of plausible range", d)
		}
	}
}

func TestCrossDomainDistanceIncludesUplinks(t *testing.T) {
	nw := newSmall(t)
	cfg := nw.Config()
	// First stub node of domain 0 vs first stub node of the last domain:
	// the path must include two 5 ms uplinks.
	a := PhysID(nw.NumTransit())
	b := PhysID(nw.TotalNodes() - cfg.StubPerDomain)
	if nw.DomainOf(a) == nw.DomainOf(b) {
		t.Fatal("test nodes unexpectedly in one domain")
	}
	if d := nw.Distance(a, b); d < 2*cfg.LatTransitStub {
		t.Errorf("cross-domain distance %d below two uplinks (%d)", d, 2*cfg.LatTransitStub)
	}
}

func TestTransitDistances(t *testing.T) {
	nw := newSmall(t)
	cfg := nw.Config()
	// Transit nodes in different domains must pay at least one 50 ms hop
	// unless... they cannot avoid it: every inter-domain edge costs 50.
	a, b := PhysID(0), PhysID(cfg.TransitPerDomain) // domain 0 vs domain 1
	if d := nw.Distance(a, b); d < cfg.LatInterTransit {
		t.Errorf("inter-domain transit distance %d < %d", d, cfg.LatInterTransit)
	}
	// Same-domain transit nodes are connected by 20 ms links only; the
	// domain has ≤ TransitPerDomain-1 path hops.
	c, d := PhysID(0), PhysID(1)
	if dist := nw.Distance(c, d); dist%cfg.LatIntraTransit != 0 && dist < cfg.LatInterTransit {
		t.Errorf("intra-domain transit distance %d not multiple of %d", dist, cfg.LatIntraTransit)
	}
}

func TestDomainOf(t *testing.T) {
	nw := newSmall(t)
	if got := nw.DomainOf(0); got != -1 {
		t.Errorf("DomainOf(transit) = %d, want -1", got)
	}
	per := nw.Config().StubPerDomain
	first := PhysID(nw.NumTransit())
	if got := nw.DomainOf(first); got != 0 {
		t.Errorf("DomainOf(first stub) = %d, want 0", got)
	}
	if got := nw.DomainOf(first + PhysID(per)); got != 1 {
		t.Errorf("DomainOf(second domain) = %d, want 1", got)
	}
}

func TestRandomNodesDistinct(t *testing.T) {
	nw := newSmall(t)
	rng := rand.New(rand.NewPCG(11, 0))
	k := nw.TotalNodes() / 3
	ids := nw.RandomNodes(k, rng)
	if len(ids) != k {
		t.Fatalf("got %d ids, want %d", len(ids), k)
	}
	seen := make(map[PhysID]bool, k)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		if int(id) < 0 || int(id) >= nw.TotalNodes() {
			t.Fatalf("id %d out of range", id)
		}
		seen[id] = true
	}
}

func TestRandomNodesPanicsWhenOversampled(t *testing.T) {
	nw := newSmall(t)
	defer func() {
		if recover() == nil {
			t.Error("RandomNodes(n+1) did not panic")
		}
	}()
	nw.RandomNodes(nw.TotalNodes()+1, rand.New(rand.NewPCG(1, 1)))
}

func TestDeterminism(t *testing.T) {
	a := Generate(SmallConfig())
	b := Generate(SmallConfig())
	rng := rand.New(rand.NewPCG(123, 0))
	for i := 0; i < 500; i++ {
		x := PhysID(rng.IntN(a.TotalNodes()))
		y := PhysID(rng.IntN(a.TotalNodes()))
		if a.Distance(x, y) != b.Distance(x, y) {
			t.Fatalf("same seed produced different universes at (%d,%d)", x, y)
		}
	}
	c := SmallConfig()
	c.Seed = 999
	diff := Generate(c)
	same := true
	for i := 0; i < 500 && same; i++ {
		x := PhysID(rng.IntN(a.TotalNodes()))
		y := PhysID(rng.IntN(a.TotalNodes()))
		if a.Distance(x, y) != diff.Distance(x, y) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical universes (suspicious)")
	}
}

func TestMaxDistanceBounds(t *testing.T) {
	nw := newSmall(t)
	maxd := nw.MaxDistance()
	rng := rand.New(rand.NewPCG(77, 0))
	for i := 0; i < 5000; i++ {
		a := PhysID(rng.IntN(nw.TotalNodes()))
		b := PhysID(rng.IntN(nw.TotalNodes()))
		if d := nw.Distance(a, b); d > maxd {
			t.Fatalf("Distance(%d,%d) = %d exceeds MaxDistance %d", a, b, d, maxd)
		}
	}
}

// TestMaxDistanceMemoized: repeated and concurrent calls return the
// uncached scan's value. Parallel experiment runs share one Network, so
// the memo must be race-free (this test runs under -race in `make race`).
func TestMaxDistanceMemoized(t *testing.T) {
	nw := newSmall(t)
	want := nw.computeMaxDistance()
	var wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = nw.MaxDistance()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("concurrent MaxDistance[%d] = %d, want %d", i, g, want)
		}
	}
	if nw.MaxDistance() != want {
		t.Fatal("memoized value drifted")
	}
}

func TestLocatePanicsOutOfRange(t *testing.T) {
	nw := newSmall(t)
	defer func() {
		if recover() == nil {
			t.Error("Distance with out-of-range id did not panic")
		}
	}()
	nw.Distance(0, PhysID(nw.TotalNodes()+100000))
}

func BenchmarkDistance(b *testing.B) {
	nw := Generate(SmallConfig())
	rng := rand.New(rand.NewPCG(1, 1))
	pairs := make([][2]PhysID, 1024)
	for i := range pairs {
		pairs[i] = [2]PhysID{PhysID(rng.IntN(nw.TotalNodes())), PhysID(rng.IntN(nw.TotalNodes()))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_ = nw.Distance(p[0], p[1])
	}
}

func BenchmarkGenerateFullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Generate(DefaultConfig())
	}
}

// TestFillHopsMatchesQueueBFS: the word-parallel hop matrix equals a plain
// queue BFS over adjacency lists on random graphs (connected or not) whose
// sizes straddle the 64-bit word boundaries.
func TestFillHopsMatchesQueueBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		for _, p := range []float64{0, 0.05, 0.4, 1} {
			w := (n + 63) / 64
			bitsAdj := make([]uint64, n*w)
			lists := make([][]int, n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < p {
						bitsAdj[i*w+j>>6] |= 1 << (j & 63)
						bitsAdj[j*w+i>>6] |= 1 << (i & 63)
						lists[i] = append(lists[i], j)
						lists[j] = append(lists[j], i)
					}
				}
			}
			got := make([]uint8, n*n)
			fillHops(bitsAdj, n, got)
			for src := 0; src < n; src++ {
				want := make([]uint8, n)
				for i := range want {
					want[i] = 0xFF
				}
				want[src] = 0
				queue := []int{src}
				for len(queue) > 0 {
					u := queue[0]
					queue = queue[1:]
					for _, v := range lists[u] {
						if want[v] == 0xFF {
							want[v] = want[u] + 1
							queue = append(queue, v)
						}
					}
				}
				for v, h := range got[src*n : (src+1)*n] {
					if h != want[v] {
						t.Fatalf("n=%d p=%v: hops(%d,%d) = %d, want %d", n, p, src, v, h, want[v])
					}
				}
			}
		}
	}
}
