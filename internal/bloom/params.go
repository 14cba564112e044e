package bloom

import "math"

// Paper defaults (§III-B): k = 8 hash functions sized for a maximum keyword
// set of 1,000 entries, giving m = ceil(1000·8/ln 2) = 11,542 bits.
const (
	// DefaultHashes is the number of hash functions k used everywhere.
	DefaultHashes = 8
	// DefaultBits is the fixed filter length m in bits.
	DefaultBits = 11542
)

// RequiredBits returns the minimum filter length m (in bits) that achieves
// the minimum false-positive rate for n elements under k hash functions:
// m = ceil(n·k / ln 2). With n = 1000 and k = 8 this is the paper's 11,542.
func RequiredBits(n, k int) int {
	return int(math.Ceil(float64(n) * float64(k) / math.Ln2))
}
