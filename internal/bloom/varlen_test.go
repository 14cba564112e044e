package bloom

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDefaultLengthPool(t *testing.T) {
	pool := DefaultLengthPool()
	if len(pool) < 5 {
		t.Fatalf("pool too small: %v", pool)
	}
	for i := 1; i < len(pool); i++ {
		if pool[i] <= pool[i-1] {
			t.Fatalf("pool not ascending at %d: %v", i, pool)
		}
	}
	// The fixed geometry must be in the pool (the paper's fixed scheme is
	// the variable scheme's design point for |K_max| keys).
	found := false
	for _, l := range pool {
		if l == DefaultBits {
			found = true
		}
	}
	if !found {
		t.Error("pool missing the fixed length 11,542")
	}
}

func TestChooseLength(t *testing.T) {
	pool := DefaultLengthPool()
	cases := []struct {
		n    int
		want int
	}{
		{1, pool[0]},     // tiny sharer → smallest filter
		{62, pool[0]},    // at the smallest design point
		{63, pool[1]},    // just above it
		{1000, 11542},    // the paper's worked example
		{4000, pool[6]},  // heavy sharer → largest
		{40000, pool[6]}, // beyond the pool → clamp to max
	}
	for _, tc := range cases {
		if got := ChooseLength(tc.n, DefaultHashes, pool); got != tc.want {
			t.Errorf("ChooseLength(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// Empty pool falls back to the exact requirement.
	if got := ChooseLength(1000, 8, nil); got != RequiredBits(1000, 8) {
		t.Errorf("ChooseLength with nil pool = %d", got)
	}
	if got := ChooseLength(0, 8, nil); got <= 0 {
		t.Errorf("ChooseLength(0) = %d, want positive", got)
	}
}

// Property: a variable-length filter never yields false negatives, for
// any key set within (or beyond) its design load.
func TestVarLenNoFalseNegativesProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := NewSized(len(keys))
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

func TestVarLenFalsePositiveAtDesignLoad(t *testing.T) {
	// A pool-sized filter loaded to its key count should stay near the
	// design false-positive rate, for small and large sharers alike.
	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{20, 125, 500, 1000} {
		f := NewSized(n)
		present := map[uint64]bool{}
		for len(present) < n {
			k := rng.Uint64()
			present[k] = true
			f.AddKey(k)
		}
		fp := 0
		const trials = 50000
		for i := 0; i < trials; i++ {
			k := rng.Uint64()
			if !present[k] && f.ContainsKey(k) {
				fp++
			}
		}
		rate := float64(fp) / trials
		predicted := FalsePositiveRate(f.Bits(), n, DefaultHashes)
		if rate > 3*predicted+0.003 {
			t.Errorf("n=%d: empirical FP %.4f far above predicted %.4f (m=%d)", n, rate, predicted, f.Bits())
		}
	}
}

func TestVarLenSavesWireBytes(t *testing.T) {
	// The point of variable sizing: small sharers ship much smaller full
	// ads. Compare a 30-keyword node under both schemes.
	rng := rand.New(rand.NewPCG(4, 4))
	keys := make([]uint64, 30)
	fixed := NewDefault()
	sized := NewSized(len(keys))
	for i := range keys {
		keys[i] = rng.Uint64()
		fixed.AddKey(keys[i])
		sized.AddKey(keys[i])
	}
	if sized.Bits() >= fixed.Bits() {
		t.Fatalf("sized filter %d bits not below fixed %d", sized.Bits(), fixed.Bits())
	}
	if sized.WireSize() > fixed.WireSize() {
		t.Errorf("sized wire %d B above fixed %d B", sized.WireSize(), fixed.WireSize())
	}
}

// Property: filters of different lengths probed with the same universal
// hash family agree on definite negatives propagated through Diff/Apply —
// i.e. geometry travels correctly with patches across lengths.
func TestVarLenPatchWithinGeometry(t *testing.T) {
	prop := func(aKeys, bKeys []uint64, pick uint8) bool {
		pool := DefaultLengthPool()
		l := pool[int(pick)%len(pool)]
		f := New(l, DefaultHashes)
		g := New(l, DefaultHashes)
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
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVarLenWireRoundTripAcrossPool(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for _, l := range DefaultLengthPool() {
		f := New(l, DefaultHashes)
		for i := 0; i < l/20; i++ {
			f.AddKey(rng.Uint64())
		}
		g := decodeWire(t, f.EncodeWire())
		if !f.Equal(g) {
			t.Fatalf("l=%d: wire round trip lost bits", l)
		}
		if g.Bits() != l {
			t.Fatalf("l=%d: geometry lost (%d)", l, g.Bits())
		}
	}
}

// BenchmarkAblationFilterSizing contrasts fixed and variable sizing at
// typical sharer sizes (DESIGN.md D1): wire bytes of a full ad.
func BenchmarkAblationFilterSizing(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	for _, n := range []int{15, 60, 250, 1000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		b.Run("fixed/n="+itoa(n), func(b *testing.B) {
			var wire int
			for i := 0; i < b.N; i++ {
				f := NewDefault()
				for _, k := range keys {
					f.AddKey(k)
				}
				wire = f.WireSize()
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
		b.Run("variable/n="+itoa(n), func(b *testing.B) {
			var wire int
			for i := 0; i < b.N; i++ {
				f := NewSized(n)
				for _, k := range keys {
					f.AddKey(k)
				}
				wire = f.WireSize()
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
	}
}
