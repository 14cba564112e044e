package netmodel

import (
	"math/rand/v2"
	"testing"
)

// TestTransitOnlyUniverse: a configuration without stub domains is valid
// (backbone-only simulations) and distances stay finite.
func TestTransitOnlyUniverse(t *testing.T) {
	c := SmallConfig()
	c.StubDomainsPerTransit = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("transit-only config invalid: %v", err)
	}
	nw := Generate(c)
	if nw.TotalNodes() != c.NumTransit() {
		t.Fatalf("TotalNodes = %d, want %d", nw.TotalNodes(), c.NumTransit())
	}
	for i := 0; i < nw.TotalNodes(); i++ {
		for j := i + 1; j < nw.TotalNodes(); j += 7 {
			d := nw.Distance(PhysID(i), PhysID(j))
			if d <= 0 || d > 10000 {
				t.Fatalf("Distance(%d,%d) = %d", i, j, d)
			}
		}
	}
	if nw.MaxDistance() <= 0 {
		t.Error("MaxDistance must be positive for ≥2 nodes")
	}
}

// TestSingleTransitDomain: one domain means no 50 ms links anywhere.
func TestSingleTransitDomain(t *testing.T) {
	c := SmallConfig()
	c.TransitDomains = 1
	nw := Generate(c)
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 500; i++ {
		a := PhysID(rng.IntN(nw.TotalNodes()))
		b := PhysID(rng.IntN(nw.TotalNodes()))
		d := nw.Distance(a, b)
		// Upper bound: two maximal climbs + intra-domain transit paths;
		// with one domain no path needs an inter-domain hop, so distances
		// stay well under the multi-domain worst case.
		if d > 2*(int(c.StubPerDomain)*c.LatIntraStub+c.LatTransitStub)+c.TransitPerDomain*c.LatIntraTransit {
			t.Fatalf("single-domain distance %d implausible", d)
		}
	}
}

// TestWidestPathDomain: a 255-node domain with no random edges is a path
// whose ends are 254 hops apart, the longest hop count the uint8 matrix
// holds below its 0xFF "unreached" mark.
func TestWidestPathDomain(t *testing.T) {
	c := SmallConfig()
	c.TransitDomains, c.TransitPerDomain, c.StubDomainsPerTransit = 1, 1, 1
	c.StubPerDomain, c.PIntraStub = 255, 0
	nw := Generate(c)
	longest := 0
	for a := 1; a < nw.TotalNodes(); a++ {
		for b := a + 1; b < nw.TotalNodes(); b++ {
			longest = max(longest, nw.Distance(PhysID(a), PhysID(b)))
		}
	}
	if want := 254 * c.LatIntraStub; longest != want {
		t.Fatalf("longest intra-domain distance %d, want %d", longest, want)
	}
}

// TestDenseAndSparseDomains: edge probabilities at the extremes still
// produce connected, sane universes (the Hamiltonian-path seed guarantees
// connectivity at p=0).
func TestDenseAndSparseDomains(t *testing.T) {
	for _, p := range []float64{0, 1} {
		c := SmallConfig()
		c.PIntraTransit = p
		c.PIntraStub = p
		nw := Generate(c)
		a := PhysID(0)
		b := PhysID(nw.TotalNodes() - 1)
		if d := nw.Distance(a, b); d <= 0 {
			t.Errorf("p=%v: distance %d", p, d)
		}
	}
}

// TestIsTransit verifies the ID-space split.
func TestIsTransit(t *testing.T) {
	nw := Generate(SmallConfig())
	if !nw.IsTransit(0) || !nw.IsTransit(PhysID(nw.NumTransit()-1)) {
		t.Error("transit prefix wrong")
	}
	if nw.IsTransit(PhysID(nw.NumTransit())) {
		t.Error("first stub reported as transit")
	}
}

// TestGeneratePanicsOnInvalidConfig ensures configuration errors fail
// fast.
func TestGeneratePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Generate with invalid config did not panic")
		}
	}()
	c := SmallConfig()
	c.PIntraStub = 2
	Generate(c)
}
