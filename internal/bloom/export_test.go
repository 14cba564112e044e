package bloom

import (
	"hash/fnv"
	"math"
)

// Test-only API: the simulator interns keywords as integers and tests
// membership through precomputed probes (ContainsAllProbes); the string
// keys, the per-key membership test and the bit-level views here are what
// the tests compare the live paths against. TestInternalCodeIsReachable at
// the repo root keeps test-only code out of the library.

func sumString(key string) uint64 {
	h := fnv.New64a()
	// (*fnv.sum64a).Write never fails.
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// Add inserts a string key.
func (f *Filter) Add(key string) { f.addSum(sumString(key)) }

// Contains reports whether key may be in the set. False positives occur
// with probability given by FalsePositiveRate; false negatives never occur.
func (f *Filter) Contains(key string) bool { return f.containsSum(sumString(key)) }

// ContainsKey is Contains for interned integer keys.
func (f *Filter) ContainsKey(key uint64) bool { return f.containsSum(sumUint64(key)) }

func (f *Filter) containsSum(sum uint64) bool {
	ok := true
	f.probe(sum, func(pos uint32) bool {
		if f.words[pos/64]&(1<<(pos%64)) == 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ContainsAllKeys reports whether every key may be in the set. An ad is
// considered a match for a query "if the Bloom filter returns true for all
// the query terms" (§III-C).
func (f *Filter) ContainsAllKeys(keys []uint64) bool {
	for _, k := range keys {
		if !f.ContainsKey(k) {
			return false
		}
	}
	return true
}

// Bit reports whether bit position pos is set.
func (f *Filter) Bit(pos uint32) bool {
	f.check(pos)
	return f.words[pos/64]&(1<<(pos%64)) != 0
}

// Clear resets all bits.
func (f *Filter) Clear() {
	for i := range f.words {
		f.words[i] = 0
	}
}

// Equal reports whether two filters have identical geometry and contents.
func (f *Filter) Equal(g *Filter) bool {
	if f.m != g.m || f.k != g.k {
		return false
	}
	for i := range f.words {
		if f.words[i] != g.words[i] {
			return false
		}
	}
	return true
}

// ProbeString precomputes the probe for a string key.
func ProbeString(key string) Probe {
	h1, h2 := hashPair(sumString(key))
	return Probe{h1: h1, h2: h2}
}

// DefaultMaxKeywords is |K_max|, the largest keyword set the fixed
// geometry is provisioned for.
const DefaultMaxKeywords = 1000

// FalsePositiveRate returns the expected false-positive probability of a
// filter of m bits holding n elements under k hash functions:
// (1 - e^(-kn/m))^k.
func FalsePositiveRate(m, n, k int) float64 {
	if m <= 0 || k <= 0 {
		return 1
	}
	if n <= 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}
