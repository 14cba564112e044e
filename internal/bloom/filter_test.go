package bloom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	f := NewDefault()
	if f.Bits() != DefaultBits {
		t.Errorf("Bits() = %d, want %d", f.Bits(), DefaultBits)
	}
	if f.Hashes() != DefaultHashes {
		t.Errorf("Hashes() = %d, want %d", f.Hashes(), DefaultHashes)
	}
	if !f.Empty() {
		t.Error("new filter not empty")
	}
	if f.PopCount() != 0 {
		t.Errorf("PopCount() = %d, want 0", f.PopCount())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct{ m, k int }{{0, 8}, {-1, 8}, {100, 0}, {100, -3}, {100, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.m, tc.k)
				}
			}()
			New(tc.m, tc.k)
		}()
	}
}

func TestNoFalseNegativesStrings(t *testing.T) {
	f := NewDefault()
	keys := []string{"jazz", "pop", "country", "miles davis", "kind of blue", "", "日本語", "a b c"}
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Errorf("Contains(%q) = false after Add", k)
		}
	}
}

// Property: a Bloom filter never returns a false negative, for any batch of
// integer keys.
func TestNoFalseNegativesProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := New(2048, 6)
		for _, k := range keys {
			f.AddKey(k)
		}
		for _, k := range keys {
			if !f.ContainsKey(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ContainsAllKeys is the conjunction of per-key membership.
func TestContainsAllKeysProperty(t *testing.T) {
	prop := func(add, query []uint64) bool {
		f := New(4096, 8)
		for _, k := range add {
			f.AddKey(k)
		}
		want := true
		for _, k := range query {
			if !f.ContainsKey(k) {
				want = false
				break
			}
		}
		return f.ContainsAllKeys(query) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateNearPrediction(t *testing.T) {
	// Load the paper's geometry to its design point (1,000 keys) and
	// measure the empirical false-positive rate against the prediction
	// p ≈ 0.39%.
	f := NewDefault()
	rng := rand.New(rand.NewPCG(1, 2))
	present := make(map[uint64]bool, 1000)
	for len(present) < DefaultMaxKeywords {
		k := rng.Uint64()
		present[k] = true
		f.AddKey(k)
	}
	const trials = 200000
	fp := 0
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		if present[k] {
			continue
		}
		if f.ContainsKey(k) {
			fp++
		}
	}
	got := float64(fp) / trials
	want := FalsePositiveRate(DefaultBits, DefaultMaxKeywords, DefaultHashes)
	if got > 3*want+0.001 {
		t.Errorf("empirical FP rate %.4f far above predicted %.4f", got, want)
	}
	if want > 0.006 {
		t.Errorf("predicted FP rate %.4f, paper says ≈0.39%%", want)
	}
}

func TestBitOps(t *testing.T) {
	f := New(128, 4)
	f.SetBit(0)
	f.SetBit(63)
	f.SetBit(64)
	f.SetBit(127)
	for _, p := range []uint32{0, 63, 64, 127} {
		if !f.Bit(p) {
			t.Errorf("Bit(%d) = false after SetBit", p)
		}
	}
	if f.PopCount() != 4 {
		t.Errorf("PopCount() = %d, want 4", f.PopCount())
	}
	f.ClearBit(63)
	if f.Bit(63) {
		t.Error("Bit(63) still set after ClearBit")
	}
	if got := f.SetBits(); len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 127 {
		t.Errorf("SetBits() = %v, want [0 64 127]", got)
	}
}

func TestBitOpsPanicOutOfRange(t *testing.T) {
	f := New(100, 4)
	defer func() {
		if recover() == nil {
			t.Error("SetBit(100) on m=100 filter did not panic")
		}
	}()
	f.SetBit(100)
}

func TestCloneIndependence(t *testing.T) {
	f := NewDefault()
	f.Add("original")
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal to source")
	}
	g.Add("extra key only in clone")
	if f.Equal(g) {
		t.Error("mutating clone affected source or Equal is broken")
	}
	if !f.Contains("original") {
		t.Error("source lost key after clone mutation")
	}
}

func TestClear(t *testing.T) {
	f := NewDefault()
	for i := uint64(0); i < 100; i++ {
		f.AddKey(i)
	}
	f.Clear()
	if !f.Empty() {
		t.Error("filter not empty after Clear")
	}
}

func TestEqualGeometryMismatch(t *testing.T) {
	a := New(128, 4)
	b := New(128, 5)
	c := New(192, 4)
	if a.Equal(b) || a.Equal(c) {
		t.Error("filters with different geometry reported equal")
	}
}

// Property: AppendDiff/Apply round-trips — applying the patch from f to g
// to a clone of f yields exactly g.
func TestDiffApplyProperty(t *testing.T) {
	prop := func(aKeys, bKeys []uint64) bool {
		f := New(1024, 5)
		g := New(1024, 5)
		for _, k := range aKeys {
			f.AddKey(k)
		}
		for _, k := range bKeys {
			g.AddKey(k)
		}
		var p Patch
		f.AppendDiff(g, &p)
		h := f.Clone()
		h.Apply(p)
		return h.Equal(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDiffEmptyOnEqualFilters(t *testing.T) {
	f := NewDefault()
	f.Add("x")
	var p Patch
	f.AppendDiff(f.Clone(), &p)
	if !p.Empty() {
		t.Errorf("Diff of equal filters not empty: %+v", p)
	}
}

func TestDiffPanicsOnGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Diff across geometries did not panic")
		}
	}()
	New(128, 4).AppendDiff(New(256, 4), &Patch{})
}

func TestProbeSpreadsAcrossFilter(t *testing.T) {
	// With k=8 distinct probes per key the popcount after one insertion
	// should almost always be 8 (collisions among 8 probes in 11,542 bits
	// are rare); assert at least 6 to allow for collisions.
	f := NewDefault()
	f.Add("spread-check")
	if pc := f.PopCount(); pc < 6 || pc > 8 {
		t.Errorf("PopCount after one Add = %d, want 6..8", pc)
	}
}

func TestStringAndKeyDomainsIndependent(t *testing.T) {
	f := NewDefault()
	f.AddKey(42)
	if !f.ContainsKey(42) {
		t.Error("ContainsKey(42) = false after AddKey")
	}
	// The string "42" hashes differently from the integer 42 (little-endian
	// 8-byte encoding); membership should not leak across domains.
	if f.Contains("42") && f.ContainsKey(999999999) {
		t.Log("coincidental false positive; acceptable")
	}
}

func TestMathConstantsMatchPaper(t *testing.T) {
	// m = 1000·8/ln2 = 11,542 bits
	if got := RequiredBits(1000, 8); got != 11542 {
		t.Errorf("RequiredBits(1000, 8) = %d, want 11542", got)
	}
	// At that length 1,000 keys sit at p_min = (1/2)^8 = 0.39%, and the
	// (0.6185)^(m/n) formulation agrees.
	pMin := math.Pow(0.5, 8)
	if got := FalsePositiveRate(11542, 1000, 8); math.Abs(got-pMin)/pMin > 0.02 {
		t.Errorf("FalsePositiveRate at the design point = %v, want p_min = %v", got, pMin)
	}
	alt := math.Pow(0.6185, 11542.0/1000.0)
	if math.Abs(alt-pMin)/pMin > 0.02 {
		t.Errorf("0.6185^(m/n) = %v diverges from p_min = %v", alt, pMin)
	}
}

func TestFalsePositiveRateEdgeCases(t *testing.T) {
	if got := FalsePositiveRate(0, 10, 8); got != 1 {
		t.Errorf("FP with m=0 = %v, want 1", got)
	}
	if got := FalsePositiveRate(1024, 0, 8); got != 0 {
		t.Errorf("FP with n=0 = %v, want 0", got)
	}
	// Monotone in n.
	if FalsePositiveRate(1024, 10, 4) >= FalsePositiveRate(1024, 500, 4) {
		t.Error("FP rate not increasing in n")
	}
}
