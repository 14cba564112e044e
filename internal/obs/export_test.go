package obs

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// Seconds returns the number of per-second rows (excluding warm-up).
func (r *Recorder) Seconds() int {
	if r == nil {
		return 0
	}
	return r.seconds
}
