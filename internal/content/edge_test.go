package content

import (
	"math"
	"testing"
)

// TestAllSingleCopy: SingleCopyFrac = 1 forces exactly one copy per doc
// and AvgCopies must be 1 for feasibility.
func TestAllSingleCopy(t *testing.T) {
	c := testConfig()
	c.SingleCopyFrac = 1
	c.AvgCopies = 1
	u := Generate(c)
	mean, single := u.CopyStats()
	if single != 1 {
		t.Errorf("single-copy fraction %v, want 1", single)
	}
	if math.Abs(mean-1) > 1e-9 {
		t.Errorf("mean copies %v, want exactly 1", mean)
	}
}

// TestNoFreeRiders: with FreeRiderFrac = 0 only capacity-starved peers
// may end up riding free.
func TestNoFreeRiders(t *testing.T) {
	c := testConfig()
	c.FreeRiderFrac = 0
	u := Generate(c)
	// Some peers may still end with zero docs if pools run dry, but the
	// overwhelming majority must share.
	if frac := float64(u.FreeRiderCount(nil)) / float64(u.NumPeers()); frac > 0.05 {
		t.Errorf("free-rider fraction %v with FreeRiderFrac=0", frac)
	}
}

// TestHighReplication: a generously replicated universe for ablations.
func TestHighReplication(t *testing.T) {
	c := testConfig()
	c.AvgCopies = 4
	c.SingleCopyFrac = 0.2
	c.NumDocs = 5000 // keep total instances within peer capacity
	u := Generate(c)
	mean, single := u.CopyStats()
	if mean < 3.0 {
		t.Errorf("mean copies %v, want ≈4", mean)
	}
	if single > 0.3 {
		t.Errorf("single fraction %v, want ≈0.2", single)
	}
}

// TestSingleInterestPeers: Min=Max=1 pins every sharer to one class.
func TestSingleInterestPeers(t *testing.T) {
	c := testConfig()
	c.MinInterests, c.MaxInterests = 1, 1
	u := Generate(c)
	for id := 0; id < u.NumPeers(); id++ {
		p := u.Peer(PeerID(id))
		if !p.FreeRider && p.Interests.Count() != 1 {
			t.Fatalf("sharer %d has %d interests, want 1", id, p.Interests.Count())
		}
	}
}

// TestWideKeywordRange: documents twice as wide as the default six keywords
// (the representation limit is 255, enforced by Config.Validate).
func TestWideKeywordRange(t *testing.T) {
	c := testConfig()
	c.MinKeywords, c.MaxKeywords = 1, 12
	u := Generate(c)
	seenWide := false
	for d := 0; d < u.NumDocs(); d++ {
		n := len(u.Keywords(DocID(d)))
		if n < 1 || n > 12 {
			t.Fatalf("doc %d has %d keywords", d, n)
		}
		if n >= 10 {
			seenWide = true
		}
	}
	if !seenWide {
		t.Error("no wide-keyword docs generated")
	}
}
