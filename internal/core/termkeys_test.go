package core

import (
	"asap/internal/bloom"
	"asap/internal/content"
)

// termKeys converts query terms to the Bloom layer's integer key domain.
// Test-only: production paths build probe lists in place on the search
// scratch instead of allocating a key slice per query.
func termKeys(terms []content.Keyword) []uint64 {
	keys := make([]uint64, len(terms))
	for i, t := range terms {
		keys[i] = uint64(t)
	}
	return keys
}

// filterMatches reports whether f may hold every term, as phase 1's scan
// tests it: by precomputed probes.
func filterMatches(f *bloom.Filter, terms []content.Keyword) bool {
	return f.ContainsAllProbes(bloom.PrecomputeKeys(termKeys(terms)))
}
