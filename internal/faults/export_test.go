package faults

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// LossRate returns the configured per-message drop probability.
func (p *Plane) LossRate() float64 {
	if p == nil {
		return 0
	}
	return p.loss
}

// PartitionEngaged reports whether a partition grouping is installed.
func (p *Plane) PartitionEngaged() bool { return p != nil && p.group != nil }
