package bloom

import (
	"math/rand/v2"
	"testing"
)

// slicedGeometries are the pool lengths the variable-sizing strategy can
// produce, plus deliberately odd shapes (non-word-multiple m, tiny m,
// extreme k) the matrix must still slice exactly.
var slicedGeometries = [][2]int{
	{DefaultBits, DefaultHashes},
	{DefaultBits / 16, DefaultHashes},
	{DefaultBits * 4, DefaultHashes},
	{64, 1},
	{65, 3},
	{7, 2},
	{129, 64},
}

// checkSliced cross-checks one query against s: AppendMatch yields one word
// per block, MatchBlock reads back each of those words, and every slot's
// match bit equals its filter's scalar ContainsAllProbes.
func checkSliced(t *testing.T, s *Sliced, filters []*Filter, probes []Probe) {
	t.Helper()
	m, k := s.Geometry()
	pos := s.AppendPositions(nil, probes)
	match := s.AppendMatch(nil, pos)
	if len(match) != s.Blocks() {
		t.Fatalf("m=%d k=%d: %d match words, want %d", m, k, len(match), s.Blocks())
	}
	for b, w := range match {
		if got := s.MatchBlock(b, pos); got != w {
			t.Fatalf("m=%d k=%d block=%d: MatchBlock=%x, AppendMatch=%x", m, k, b, got, w)
		}
	}
	for slot, f := range filters {
		got := match[slot>>6]>>(uint(slot)&63)&1 != 0
		if want := f.ContainsAllProbes(probes); got != want {
			t.Fatalf("m=%d k=%d slot=%d: sliced=%v scalar=%v", m, k, slot, got, want)
		}
	}
}

// TestSlicedMatchesContainsAllProbes is the exactness property of the
// bit-sliced matrix: for random filters and random probe sets across
// geometries, the match word's slot bit equals the filter's scalar
// ContainsAllProbes — bit for bit, across two full 512-slot tiles and a
// partial third, so every tile offset is exercised.
func TestSlicedMatchesContainsAllProbes(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	for _, geo := range slicedGeometries {
		m, k := geo[0], geo[1]
		s := NewSliced(m, k)
		var filters []*Filter
		for i := 0; i < 1100; i++ {
			f := New(m, k)
			for n := rng.IntN(20); n > 0; n-- {
				f.AddKey(rng.Uint64() % 500)
			}
			if slot := s.Add(f); slot != i {
				t.Fatalf("m=%d k=%d: slot %d assigned, want %d", m, k, slot, i)
			}
			filters = append(filters, f)
		}
		for trial := 0; trial < 50; trial++ {
			var keys []uint64
			for n := rng.IntN(5); n > 0; n-- {
				keys = append(keys, rng.Uint64()%500)
			}
			checkSliced(t, s, filters, AppendKeyProbes(nil, keys))
		}
	}
}

// TestSlicedEmptyPositions: with no probe positions every assigned lane
// matches — the term-less query convention — and callers are expected to
// mask out unassigned lanes themselves.
func TestSlicedEmptyPositions(t *testing.T) {
	s := NewSliced(256, 4)
	for i := 0; i < 3; i++ {
		s.Add(New(256, 4))
	}
	match := s.AppendMatch(nil, nil)
	if len(match) != 1 || match[0] != ^uint64(0) {
		t.Fatalf("empty positions match = %x, want all-ones", match)
	}
}

// TestSlicedGeometryMismatchPanics: adding a filter of a foreign geometry
// must panic rather than corrupt the columns.
func TestSlicedGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add across geometries did not panic")
		}
	}()
	NewSliced(128, 4).Add(New(64, 4))
}

// TestSlicedAppendReusesBuffers: AppendPositions/AppendMatch write into
// the given buffers, the contract the per-query scratch relies on.
func TestSlicedAppendReusesBuffers(t *testing.T) {
	s := NewSliced(512, 8)
	f := New(512, 8)
	f.AddKey(1)
	s.Add(f)
	probes := []Probe{ProbeKey(1)}
	pos := make([]uint32, 0, 64)
	match := make([]uint64, 0, 8)
	p2 := s.AppendPositions(pos, probes)
	m2 := s.AppendMatch(match, p2)
	if &p2[0] != &pos[:1][0] || &m2[0] != &match[:1][0] {
		t.Fatal("append helpers reallocated despite sufficient capacity")
	}
	if m2[0]&1 == 0 {
		t.Fatal("added filter's own key did not match")
	}
}

// FuzzSlicedGeometry feeds arbitrary filter geometries and key material to
// the sliced index and cross-checks every slot's match bit against the
// scalar probe walk — the fuzz companion of the exactness property. Keys
// come from a 64-key universe so queries do match, and 520 filters reach
// into a second tile.
func FuzzSlicedGeometry(f *testing.F) {
	f.Add(uint16(DefaultBits), uint8(DefaultHashes), uint64(12345), uint8(7))
	f.Add(uint16(64), uint8(1), uint64(0), uint8(1))
	f.Add(uint16(3), uint8(64), uint64(1<<60), uint8(200))
	f.Fuzz(func(t *testing.T, m16 uint16, k8 uint8, seed uint64, nKeys uint8) {
		m := int(m16%4096) + 1
		k := int(k8%64) + 1
		rng := rand.New(rand.NewPCG(seed, 99))
		s := NewSliced(m, k)
		var filters []*Filter
		for i := 0; i < 520; i++ {
			fl := New(m, k)
			for n := int(nKeys) % 16; n > 0; n-- {
				fl.AddKey(rng.Uint64N(64))
			}
			s.Add(fl)
			filters = append(filters, fl)
		}
		checkSliced(t, s, filters, AppendKeyProbes(nil, []uint64{seed % 64, rng.Uint64N(64)}))
	})
}

// BenchmarkAppendMatch measures the tile-major match pass a query pays once
// per geometry group: the default geometry at 2,048 slots (four tiles),
// 1–3-term queries drawn from the filters' own keys so some lanes survive.
// ns/block is the cost per 64-slot match word.
func BenchmarkAppendMatch(b *testing.B) {
	const slots, perAd, queries = 2048, 60, 64
	rng := rand.New(rand.NewPCG(1, 2))
	s := NewSliced(DefaultBits, DefaultHashes)
	keys := make([]uint64, 0, slots*perAd)
	for i := 0; i < slots; i++ {
		f := NewDefault()
		for j := 0; j < perAd; j++ {
			key := rng.Uint64N(1 << 20)
			f.AddKey(key)
			keys = append(keys, key)
		}
		s.Add(f)
	}
	positions := make([][]uint32, queries)
	for i := range positions {
		at := rng.IntN(slots) * perAd
		terms := keys[at : at+1+rng.IntN(3)]
		positions[i] = s.AppendPositions(nil, AppendKeyProbes(nil, terms))
	}
	match := make([]uint64, 0, s.Blocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match = s.AppendMatch(match[:0], positions[i%queries])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Blocks()), "ns/block")
}
