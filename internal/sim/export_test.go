package sim

import "asap/internal/overlay"

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// Graph exposes the prototype's master overlay (read-only; runs always
// operate on clones).
func (p *TopoProto) Graph() *overlay.Graph { return p.g }
