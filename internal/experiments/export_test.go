package experiments

import (
	"sort"
	"testing"

	"asap/internal/metrics"
	"asap/internal/overlay"
)

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// SortedKinds returns topology kinds in paper order (helper for stable
// output).
func SortedKinds(m map[overlay.Kind]metrics.Summary) []overlay.Kind {
	out := make([]overlay.Kind, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// matrixAt runs lab's matrix with Scale.MatrixWorkers set to workers for
// the one call.
func matrixAt(t *testing.T, lab *Lab, workers int, schemes []string, topos []overlay.Kind, progress func(string, overlay.Kind)) ([]Cell, error) {
	t.Helper()
	prev := lab.Scale.MatrixWorkers
	lab.Scale.MatrixWorkers = workers
	defer func() { lab.Scale.MatrixWorkers = prev }()
	return lab.RunMatrix(schemes, topos, progress)
}
