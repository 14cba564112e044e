package bloom

import (
	"fmt"
	"math/bits"
)

// tileBlocks is the number of 64-slot blocks one tile interleaves: their
// eight column words for a bit position fill one 64-byte cache line.
const tileBlocks = 8

// Sliced is a bit-sliced (column-major) signature matrix over filters that
// share one geometry (m, k). Filters are assigned consecutive slots,
// grouped into blocks of 64 and blocks into tiles of tileBlocks. A tile is
// stored position-major: word tiles[t][8·pos + b&7] holds block b's
// column for bit pos (b = 8t + b&7), where bit j says whether slot 64b+j's
// filter sets bit pos. One probe position thus covers a tile's 512 slots
// with one cache line, and a query's positions test up to 512 filters per
// word-AND pass instead of probing each filter's bitmap in turn.
//
// The matrix is append-only: Add assigns the next slot and writes its
// column bits once; no written bit is ever changed afterwards, so a match
// word computed at any point stays correct for every slot that existed
// then. Add does write into the current tile (the new slot's lane), so
// callers must not run Add concurrently with AppendMatch or MatchBlock —
// the simulator registers slots only on its single writing goroutine, and
// serving readers match only while the serving gate holds that writer off.
type Sliced struct {
	m, k  uint32
	n     int
	tiles [][]uint64 // tiles[t][8·pos + b&7]: bit j set ⇔ slot 64b+j sets bit pos
}

// NewSliced returns an empty signature matrix for filters of m bits probed
// by k hash functions. It panics on a non-positive geometry, like New.
func NewSliced(m, k int) *Sliced {
	if m <= 0 || k <= 0 || k > 64 {
		panic(fmt.Sprintf("bloom: invalid sliced geometry m=%d k=%d", m, k))
	}
	return &Sliced{m: uint32(m), k: uint32(k)}
}

// Geometry returns the shared filter geometry (m, k) of this matrix.
func (s *Sliced) Geometry() (m, k int) { return int(s.m), int(s.k) }

// Len returns the number of assigned slots.
func (s *Sliced) Len() int { return s.n }

// Blocks returns the number of 64-slot blocks holding assigned slots, i.e.
// the length AppendMatch appends.
func (s *Sliced) Blocks() int { return (s.n + 63) >> 6 }

// Add assigns the next slot to f and writes its signature columns: for
// every bit position set in f, the slot's lane bit in that position's
// column word. It panics on a geometry mismatch — a foreign geometry's bit
// positions would not line up with this matrix's columns.
func (s *Sliced) Add(f *Filter) int {
	if f.m != s.m || uint32(f.k) != s.k {
		panic(fmt.Sprintf("bloom: Add of (m=%d,k=%d) filter to (m=%d,k=%d) sliced matrix", f.m, f.k, s.m, s.k))
	}
	slot := s.n
	s.n++
	t := slot / (64 * tileBlocks)
	if t == len(s.tiles) {
		s.tiles = append(s.tiles, make([]uint64, int(s.m)*tileBlocks))
	}
	tile, b := s.tiles[t], uint32(slot>>6)%tileBlocks
	lane := uint64(1) << (uint(slot) & 63)
	for wi, w := range f.words {
		for ; w != 0; w &= w - 1 {
			tile[uint32(wi*64+bits.TrailingZeros64(w))*tileBlocks+b] |= lane
		}
	}
	return slot
}

// AppendPositions appends each probe's k bit positions reduced mod this
// matrix's filter length, and returns dst. The positions are shared by
// every filter in the matrix — that is the point of grouping slots by
// geometry — so one reduction serves the whole scan.
func (s *Sliced) AppendPositions(dst []uint32, ps []Probe) []uint32 {
	for _, p := range ps {
		for i := uint32(0); i < s.k; i++ {
			dst = append(dst, (p.h1+i*p.h2)%s.m)
		}
	}
	return dst
}

// AppendMatch appends one match word per block to dst and returns it: bit
// j of word b is set iff slot 64b+j's filter has every one of positions
// set — exactly ContainsAllProbes of that filter for the probes the
// positions were derived from. Each tile costs one cache-line AND pass per
// position, cut short once all eight of its words are zero. With no
// positions every lane matches (a term-less query passes every filter),
// including lanes beyond Len(), so callers AND the result against a
// slot-membership mask rather than reading it raw.
func (s *Sliced) AppendMatch(dst []uint64, positions []uint32) []uint64 {
	left := s.Blocks()
	for _, tile := range s.tiles {
		w0, w1, w2, w3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		w4, w5, w6, w7 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		for _, pos := range positions {
			l := (*[tileBlocks]uint64)(tile[pos*tileBlocks:])
			w0, w1, w2, w3 = w0&l[0], w1&l[1], w2&l[2], w3&l[3]
			w4, w5, w6, w7 = w4&l[4], w5&l[5], w6&l[6], w7&l[7]
			if w0|w1|w2|w3|w4|w5|w6|w7 == 0 {
				break
			}
		}
		w := [tileBlocks]uint64{w0, w1, w2, w3, w4, w5, w6, w7}
		dst = append(dst, w[:min(left, tileBlocks)]...)
		left -= tileBlocks
	}
	return dst
}

// MatchBlock computes the match word of one 64-slot block: bit j is set iff
// slot 64b+j's filter has every one of positions set — word b of
// AppendMatch. It AND-folds the block's column words with early exit once
// no lane survives.
func (s *Sliced) MatchBlock(b int, positions []uint32) uint64 {
	tile, col := s.tiles[b/tileBlocks], uint32(b%tileBlocks)
	w := ^uint64(0)
	for _, pos := range positions {
		w &= tile[pos*tileBlocks+col]
		if w == 0 {
			break
		}
	}
	return w
}
