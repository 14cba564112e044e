package bloom

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// decodeWire is the reference decoder for EncodeWire. No byte from outside
// reaches a filter decoder, so it lives here, unhardened: it exists to show
// that the bytes the byte model prices carry the whole filter.
func decodeWire(t *testing.T, data []byte) *Filter {
	t.Helper()
	m, n := binary.Uvarint(data[1:])
	f := New(int(m), int(data[1+n]))
	body := data[2+n:]
	switch data[0] {
	case 0:
		if len(body) != (int(m)+7)/8 {
			t.Fatalf("raw body %d bytes, want %d", len(body), (m+7)/8)
		}
		for i, b := range body {
			f.words[i/8] |= uint64(b) << (8 * (i % 8))
		}
	case 1:
		pos, rest := readPosList(body)
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes after compressed filter", len(rest))
		}
		for _, p := range pos {
			f.SetBit(p)
		}
	default:
		t.Fatalf("unknown wire format %d", data[0])
	}
	return f
}

// decodePatch is the reference decoder for Patch.Encode.
func decodePatch(t *testing.T, data []byte) Patch {
	t.Helper()
	set, rest := readPosList(data)
	cleared, rest := readPosList(rest)
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after patch", len(rest))
	}
	return Patch{Set: set, Cleared: cleared}
}

// readPosList parses a list written by appendPosList and returns the rest.
func readPosList(data []byte) ([]uint32, []byte) {
	count, n := binary.Uvarint(data)
	data = data[n:]
	pos := make([]uint32, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Uvarint(data)
		data = data[n:]
		prev += d
		pos = append(pos, uint32(prev))
	}
	return pos, data
}

// Property: compressed encode/decode round-trips any filter contents.
func TestCompressedRoundTripProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := New(2048, 5)
		for _, k := range keys {
			f.AddKey(k)
		}
		return f.Equal(decodeWire(t, append([]byte{1}, f.EncodeCompressed()...)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: raw encode/decode round-trips any filter contents.
func TestRawRoundTripProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := New(2048, 5)
		for _, k := range keys {
			f.AddKey(k)
		}
		return f.Equal(decodeWire(t, append([]byte{0}, f.EncodeRaw()...)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// wireSizeOf is the full-ad size the byte model charges for f: the
// compressed list without its format byte, or the raw bitmap with its
// header priced at the five-byte varint bound plus the format byte.
func wireSizeOf(f *Filter) int {
	raw := 6 + (f.Bits()+7)/8
	return min(len(f.EncodeCompressed()), raw)
}

// Property: the wire encoding round-trips any filter contents and picks
// the smaller form, and WireSize equals wireSizeOf's price from the
// materialised encoding — for sparse and dense filters alike.
func TestWireRoundTripProperty(t *testing.T) {
	prop := func(keys []uint64, dense bool) bool {
		f := New(1024, 4)
		if dense {
			f = New(256, 8)
		}
		for _, k := range keys {
			f.AddKey(k)
		}
		enc := f.EncodeWire()
		if len(enc) != 1+min(len(f.EncodeRaw()), len(f.EncodeCompressed())) {
			return false
		}
		return f.Equal(decodeWire(t, enc)) && f.WireSize() == wireSizeOf(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressedBeatsRawWhenSparse(t *testing.T) {
	f := NewDefault()
	f.AddKey(1)
	f.AddKey(2)
	if f.WireSize() >= 6+(DefaultBits+7)/8 {
		t.Errorf("sparse filter WireSize %d not below raw %d", f.WireSize(), 6+(DefaultBits+7)/8)
	}
}

func TestRawBeatsCompressedWhenDense(t *testing.T) {
	f := NewDefault()
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 5000; i++ {
		f.AddKey(rng.Uint64())
	}
	raw := 6 + (DefaultBits+7)/8
	if f.WireSize() != raw {
		t.Errorf("dense filter WireSize %d, want raw %d", f.WireSize(), raw)
	}
}

func TestEmptyFilterWire(t *testing.T) {
	f := NewDefault()
	if g := decodeWire(t, f.EncodeWire()); !g.Empty() || !f.Equal(g) {
		t.Error("empty filter did not round-trip")
	}
	// A free-rider's null filter costs almost nothing on the wire.
	if f.WireSize() > 16 {
		t.Errorf("empty filter WireSize %d, want tiny", f.WireSize())
	}
}

// Property: patch encode/decode round-trips, and WireSize is the encoded
// length.
func TestPatchRoundTripProperty(t *testing.T) {
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
		enc := p.Encode()
		h := f.Clone()
		h.Apply(decodePatch(t, enc))
		return h.Equal(g) && p.WireSize() == len(enc)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPatchWireSizeScalesWithChanges(t *testing.T) {
	f := NewDefault()
	var p Patch
	g := f.Clone()
	g.AddKey(12345) // ~8 changed bits
	f.AppendDiff(g, &p)
	small := p.WireSize()

	h := f.Clone()
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 200; i++ {
		h.AddKey(rng.Uint64())
	}
	f.AppendDiff(h, &p)
	big := p.WireSize()
	if small >= big {
		t.Errorf("patch sizes not monotone: small=%d big=%d", small, big)
	}
	if small > 40 {
		t.Errorf("single-key patch costs %d bytes, want small", small)
	}
}

// Property: WireSize equals the materialised encoding's length for any
// position list — sorted, reversed, shuffled, or with duplicates. The
// unsorted path sizes by min-extraction instead of sorting a copy, so this
// pins the two walks against each other.
func TestPatchWireSizeExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	lists := [][]uint32{
		nil,
		{},
		{0},
		{5, 1},
		{9, 9, 9},
		{1 << 30, 0, 1 << 30, 77, 77},
		{^uint32(0) >> 1, 0, ^uint32(0) >> 1},
	}
	for i := 0; i < 50; i++ {
		n := rng.IntN(40)
		l := make([]uint32, n)
		for j := range l {
			l[j] = uint32(rng.IntN(1 << 14)) // small domain: plenty of dups
		}
		lists = append(lists, l)
	}
	for i, set := range lists {
		for j, cleared := range lists {
			p := Patch{Set: set, Cleared: cleared}
			if got, want := p.WireSize(), len(p.Encode()); got != want {
				t.Fatalf("lists %d/%d: WireSize %d, Encode %d bytes", i, j, got, want)
			}
		}
	}
}

// TestPatchWireSizeAllocs is the publish-path zero-alloc gate (wired into
// `make alloc-gate`): sizing a patch must not allocate even when the
// position lists arrive out of order — the documented contract WireSize
// previously broke by falling back to len(p.Encode()).
func TestPatchWireSizeAllocs(t *testing.T) {
	sorted := Patch{Set: []uint32{1, 5, 9, 9, 200}, Cleared: []uint32{0, 3}}
	unsorted := Patch{Set: []uint32{900, 4, 4, 31, 2}, Cleared: []uint32{77, 0, 77}}
	sink := 0
	if a := testing.AllocsPerRun(100, func() { sink += sorted.WireSize() }); a != 0 {
		t.Errorf("sorted WireSize allocates %.1f times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink += unsorted.WireSize() }); a != 0 {
		t.Errorf("unsorted WireSize allocates %.1f times per call, want 0", a)
	}
	_ = sink
}

func TestPatchEmptyAndLen(t *testing.T) {
	var p Patch
	if !p.Empty() || p.Len() != 0 {
		t.Error("zero patch not empty")
	}
	p.Set = []uint32{1, 2}
	p.Cleared = []uint32{7}
	if p.Empty() || p.Len() != 3 {
		t.Errorf("Len() = %d, want 3", p.Len())
	}
}

func TestAppendPosListHandlesUnsorted(t *testing.T) {
	buf := appendPosList(nil, []uint32{9, 3, 7})
	got, rest := readPosList(buf)
	if len(rest) != 0 {
		t.Fatalf("readPosList left %d bytes", len(rest))
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 9 {
		t.Errorf("positions = %v, want sorted [3 7 9]", got)
	}
}

func BenchmarkAddKey(b *testing.B) {
	f := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.AddKey(uint64(i))
	}
}

func BenchmarkContainsKey(b *testing.B) {
	f := NewDefault()
	for i := uint64(0); i < 1000; i++ {
		f.AddKey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ContainsKey(uint64(i % 2000))
	}
}

// BenchmarkAblationEncoding compares the two full-ad encodings at the load
// levels the paper discusses (DESIGN.md D5).
func BenchmarkAblationEncoding(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		f := NewDefault()
		rng := rand.New(rand.NewPCG(1, uint64(n)))
		for i := 0; i < n; i++ {
			f.AddKey(rng.Uint64())
		}
		b.Run("compressed/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = f.EncodeCompressed()
			}
			b.ReportMetric(float64(len(f.EncodeCompressed())), "wire-bytes")
		})
		b.Run("raw/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = f.EncodeRaw()
			}
			b.ReportMetric(float64(len(f.EncodeRaw())), "wire-bytes")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
