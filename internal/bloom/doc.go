// Package bloom implements the Bloom-filter machinery ASAP uses to
// summarise a peer's shared content (paper §III-B).
//
// The paper fixes one filter geometry for the whole system: with a maximum
// keyword set of |K_max| = 1,000 and k = 8 hash functions, the minimum
// filter length achieving the smallest false-positive rate is
//
//	m = |K_max|·k / ln 2 = 11,542 bits ≈ 1.43 KB,
//
// and the smallest reachable false-positive probability is
//
//	p_min = (1/2)^k = 0.6185^(m/n) ≈ 0.39%.
//
// The package provides:
//
//   - Filter: the fixed-geometry bit-array filter, probed through
//     precomputed Probes. Membership tests may return false positives with
//     predictable probability but never false negatives.
//   - Sliced: the bit-sliced index that tests one query against a whole
//     cache of filters at once.
//   - Wire sizes: a full filter is priced as the raw bitmap or as a
//     delta-varint list of set-bit positions, whichever is smaller ("for
//     those peers who share few files and keywords, we use a compressed
//     representation"). The replay needs only the size (WireSize); the
//     encoders (EncodeWire and the two forms under it) are the reference
//     the size is tested against. No byte from outside reaches a filter,
//     so there is no decoder.
//   - Patch: "an ad patch for content filter changes is implemented by a
//     list of changed bit locations in the filter", sized by WireSize and
//     encoded by Encode.
//
// There is no counting variant: where the paper keeps (i, x) tuples, "bit i
// is set x times", the simulator rebuilds a peer's filter from its documents
// at each publication and ships the bit difference as a Patch.
//
// Keys are 64-bit integers (the simulator interns keywords). Every key goes
// through one double-hashing scheme (Kirsch–Mitzenmacher: g_i(x) = h1(x) +
// i·h2(x) mod m), so one set of hash functions is "used everywhere" exactly
// as the paper's fixed-length design requires.
package bloom
