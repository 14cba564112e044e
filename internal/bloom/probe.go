package bloom

// Probe is the precomputed double-hash pair (h1, h2) of one key. The pair
// is geometry-independent — reduction mod m happens at probe time — so
// one precomputation serves filters of every pool length, matching
// §III-B's "only one set of hash functions are used everywhere". Hot
// paths that test one query against many filters (scanning a node's ads
// cache) precompute the probes once instead of re-hashing every key for
// every filter.
type Probe struct{ h1, h2 uint32 }

// ProbeKey precomputes the probe for an interned integer key (the
// simulator's keyword IDs).
func ProbeKey(key uint64) Probe {
	h1, h2 := hashPair(sumUint64(key))
	return Probe{h1: h1, h2: h2}
}

// AppendKeyProbes appends the probes of keys to dst and returns it,
// letting callers reuse scratch space across queries.
func AppendKeyProbes(dst []Probe, keys []uint64) []Probe {
	for _, k := range keys {
		dst = append(dst, ProbeKey(k))
	}
	return dst
}

// PrecomputeKeys returns the probes of keys.
func PrecomputeKeys(keys []uint64) []Probe {
	return AppendKeyProbes(make([]Probe, 0, len(keys)), keys)
}

// ContainsProbe reports whether the probed key may be in the set. It tests
// the k derived bit positions directly against the filter words and exits
// at the first unset bit; false positives occur, false negatives never.
func (f *Filter) ContainsProbe(p Probe) bool {
	for i := uint32(0); i < uint32(f.k); i++ {
		pos := (p.h1 + i*p.h2) % f.m
		if f.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// ContainsAllProbes reports whether every probed key may be in the set.
// It agrees with per-key hashing for the same keys on every filter
// geometry (see TestProbesAgreeWithKeys); scanning N cached ads for a
// q-term query costs N·q·k word tests and zero hash computations instead
// of N·q FNV digests.
func (f *Filter) ContainsAllProbes(ps []Probe) bool {
	for _, p := range ps {
		if !f.ContainsProbe(p) {
			return false
		}
	}
	return true
}
