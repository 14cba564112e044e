package bloom

import (
	"encoding/binary"
	"math/bits"
	"sort"
)

// Patch is "a list of changed bit locations in the filter" (§III-B): the
// wire payload of a patch ad. Positions appear in ascending order within
// each list. Applying a patch to the filter it was diffed from yields the
// updated filter exactly.
type Patch struct {
	Set     []uint32 // positions that became 1
	Cleared []uint32 // positions that became 0
}

// Empty reports whether the patch changes nothing.
func (p Patch) Empty() bool { return len(p.Set) == 0 && len(p.Cleared) == 0 }

// Len returns the number of changed bit locations.
func (p Patch) Len() int { return len(p.Set) + len(p.Cleared) }

// WireSize returns the encoded size of the patch in bytes. It computes
// the varint lengths directly instead of materialising the encoding — the
// publish hot path sizes a patch per content change and must not allocate
// for it, not even for a caller-built unsorted list.
func (p Patch) WireSize() int {
	s := encodedPosListLen(p.Set)
	if s < 0 {
		s = unsortedPosListLen(p.Set)
	}
	c := encodedPosListLen(p.Cleared)
	if c < 0 {
		c = unsortedPosListLen(p.Cleared)
	}
	return s + c
}

// Encode serialises the patch as two delta-varint position lists, each
// preceded by its length.
func (p Patch) Encode() []byte {
	buf := make([]byte, 0, 2+3*(len(p.Set)+len(p.Cleared)))
	buf = appendPosList(buf, p.Set)
	buf = appendPosList(buf, p.Cleared)
	return buf
}

// EncodeCompressed serialises the filter as a delta-varint list of set-bit
// positions — the "compressed representation" used when a peer shares few
// files and keywords. A 5-byte header carries geometry so the receiver can
// validate.
func (f *Filter) EncodeCompressed() []byte {
	buf := make([]byte, 0, 5+3*f.PopCount())
	buf = binary.AppendUvarint(buf, uint64(f.m))
	buf = append(buf, f.k)
	buf = appendPosList(buf, f.SetBits())
	return buf
}

// EncodeRaw serialises the filter as its raw bitmap preceded by the same
// 5-byte geometry header.
func (f *Filter) EncodeRaw() []byte {
	nbytes := (int(f.m) + 7) / 8
	buf := make([]byte, 0, 6+nbytes)
	buf = binary.AppendUvarint(buf, uint64(f.m))
	buf = append(buf, f.k)
	for i := 0; i < nbytes; i++ {
		buf = append(buf, byte(f.words[i/8]>>(8*(i%8))))
	}
	return buf
}

// WireSize returns the number of bytes the filter occupies on the wire:
// the smaller of the raw bitmap and the compressed position-list encodings.
// This is the payload size charged to full-ad messages by the simulator.
// Like Patch.WireSize it sums varint lengths without building either
// encoding, so sizing a freshly built filter allocates nothing.
func (f *Filter) WireSize() int {
	raw := 6 + (int(f.m)+7)/8
	comp := uvarintLen(uint64(f.m)) + 1 + uvarintLen(uint64(f.PopCount()))
	prev := uint32(0)
	first := true
	for wi, w := range f.words {
		for ; w != 0; w &= w - 1 {
			pos := uint32(wi*64 + bits.TrailingZeros64(w))
			if first {
				comp += uvarintLen(uint64(pos))
				first = false
			} else {
				comp += uvarintLen(uint64(pos - prev))
			}
			prev = pos
			if comp >= raw {
				return raw
			}
		}
	}
	return comp
}

// uvarintLen returns the encoded length of x as an unsigned varint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// encodedPosListLen returns the byte length appendPosList would write for
// an ascending position list, or -1 when the list is out of order (the
// caller then falls back to encoding, which sorts a copy).
func encodedPosListLen(pos []uint32) int {
	n := uvarintLen(uint64(len(pos)))
	prev := uint32(0)
	for i, p := range pos {
		if i == 0 {
			n += uvarintLen(uint64(p))
		} else {
			if p < prev {
				return -1
			}
			n += uvarintLen(uint64(p - prev))
		}
		prev = p
	}
	return n
}

// unsortedPosListLen sizes appendPosList's output for an out-of-order
// list without sorting a copy: it walks the distinct values in ascending
// order by repeated min-extraction, summing the same count + first-value +
// delta varints the encoder writes. Duplicates sort adjacent and encode as
// one-byte zero deltas. O(distinct · len) time, zero allocations — the
// sorted fast path (encodedPosListLen) covers every list the diff engine
// itself produces, so this only runs on caller-built patches.
func unsortedPosListLen(pos []uint32) int {
	n := uvarintLen(uint64(len(pos)))
	lo := uint32(0)   // next distinct value is the minimum ≥ lo
	prev := uint32(0) // previous distinct value, for delta sizing
	first := true
	for left := len(pos); left > 0; {
		cur := ^uint32(0)
		cnt := 0
		for _, p := range pos {
			switch {
			case p < lo || p > cur:
			case p < cur:
				cur, cnt = p, 1
			default:
				cnt++
			}
		}
		if first {
			n += uvarintLen(uint64(cur))
			first = false
		} else {
			n += uvarintLen(uint64(cur - prev))
		}
		n += cnt - 1 // duplicates: zero deltas, one byte each
		prev = cur
		lo = cur + 1 // cur == MaxUint32 wraps lo to 0, but then left is 0
		left -= cnt
	}
	return n
}

// EncodeWire picks the smaller of the two encodings, prefixing one format
// byte (0 = raw, 1 = compressed).
func (f *Filter) EncodeWire() []byte {
	raw := f.EncodeRaw()
	comp := f.EncodeCompressed()
	if len(comp) < len(raw) {
		return append([]byte{1}, comp...)
	}
	return append([]byte{0}, raw...)
}

// appendPosList writes a sorted position list as count + delta varints.
func appendPosList(buf []byte, pos []uint32) []byte {
	if !sort.SliceIsSorted(pos, func(i, j int) bool { return pos[i] < pos[j] }) {
		pos = append([]uint32(nil), pos...)
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
	}
	buf = binary.AppendUvarint(buf, uint64(len(pos)))
	prev := uint32(0)
	for i, p := range pos {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(p))
		} else {
			buf = binary.AppendUvarint(buf, uint64(p-prev))
		}
		prev = p
	}
	return buf
}
