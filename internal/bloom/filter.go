package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
)

// Filter is a fixed-geometry Bloom filter. All peers in an ASAP system share
// one geometry (m, k) so that "only one set of hash functions are used
// everywhere" (§III-B). The zero value is unusable; construct with New or
// NewDefault.
type Filter struct {
	m     uint32 // filter length in bits
	k     uint8  // number of hash functions
	words []uint64
}

// New returns an empty filter of m bits probed by k hash functions.
// It panics if m or k is non-positive, as that indicates a programming
// error in simulator configuration.
func New(m, k int) *Filter {
	if m <= 0 || k <= 0 || k > 64 {
		panic(fmt.Sprintf("bloom: invalid geometry m=%d k=%d", m, k))
	}
	return &Filter{m: uint32(m), k: uint8(k), words: make([]uint64, (m+63)/64)}
}

// NewDefault returns an empty filter with the paper's fixed geometry
// (m = 11,542 bits, k = 8).
func NewDefault() *Filter { return New(DefaultBits, DefaultHashes) }

// Bits returns the filter length m in bits.
func (f *Filter) Bits() int { return int(f.m) }

// Hashes returns the number of hash functions k.
func (f *Filter) Hashes() int { return int(f.k) }

// hashPair derives the two base hashes of the double-hashing scheme from a
// single 64-bit FNV-1a digest. The high half seeds h1 and the low half h2;
// h2 is forced odd so the probe sequence spans the filter.
func hashPair(sum uint64) (h1, h2 uint32) {
	h1 = uint32(sum >> 32)
	h2 = uint32(sum) | 1
	return h1, h2
}

func sumUint64(key uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	h := fnv.New64a()
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

// probe invokes fn with each of the k bit positions for the given digest.
// fn returns false to stop early.
func (f *Filter) probe(sum uint64, fn func(pos uint32) bool) {
	h1, h2 := hashPair(sum)
	for i := uint32(0); i < uint32(f.k); i++ {
		if !fn((h1 + i*h2) % f.m) {
			return
		}
	}
}

// AddKey inserts an interned integer key (the simulator's keyword IDs).
func (f *Filter) AddKey(key uint64) { f.addSum(sumUint64(key)) }

func (f *Filter) addSum(sum uint64) {
	f.probe(sum, func(pos uint32) bool {
		f.words[pos/64] |= 1 << (pos % 64)
		return true
	})
}

// SetBit sets bit position pos. It is used when applying patches and when
// decoding compressed filters. Positions outside [0, m) panic.
func (f *Filter) SetBit(pos uint32) {
	f.check(pos)
	f.words[pos/64] |= 1 << (pos % 64)
}

// ClearBit clears bit position pos.
func (f *Filter) ClearBit(pos uint32) {
	f.check(pos)
	f.words[pos/64] &^= 1 << (pos % 64)
}

func (f *Filter) check(pos uint32) {
	if pos >= f.m {
		panic(fmt.Sprintf("bloom: bit %d out of range (m=%d)", pos, f.m))
	}
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bits are set. Free-riders "have a null content
// filter, thus having nothing to advertise" (§III-B).
func (f *Filter) Empty() bool {
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// SetBits returns the sorted positions of all set bits.
func (f *Filter) SetBits() []uint32 {
	out := make([]uint32, 0, f.PopCount())
	for wi, w := range f.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, uint32(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	g := &Filter{m: f.m, k: f.k, words: make([]uint64, len(f.words))}
	copy(g.words, f.words)
	return g
}

// AppendDiff writes into p the patch transforming f into g: the bit
// positions whose values differ, split by the value they take in g, each
// list ascending. Filters must share a geometry. It reuses p's position
// slices: the publish path diffs one filter pair per content change all
// replay long, and with a pooled patch the diff allocates nothing once the
// buffers have grown.
func (f *Filter) AppendDiff(g *Filter, p *Patch) {
	if f.m != g.m || f.k != g.k {
		panic("bloom: Diff across mismatched geometries")
	}
	p.Set, p.Cleared = p.Set[:0], p.Cleared[:0]
	for wi := range f.words {
		x := f.words[wi] ^ g.words[wi]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			pos := uint32(wi*64 + b)
			if g.words[wi]&(1<<uint(b)) != 0 {
				p.Set = append(p.Set, pos)
			} else {
				p.Cleared = append(p.Cleared, pos)
			}
			x &= x - 1
		}
	}
}

// Apply applies a patch produced by Diff.
func (f *Filter) Apply(p Patch) {
	for _, pos := range p.Set {
		f.SetBit(pos)
	}
	for _, pos := range p.Cleared {
		f.ClearBit(pos)
	}
}
