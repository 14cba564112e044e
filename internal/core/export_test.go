package core

import "asap/internal/overlay"

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// DeliveryKinds lists the three variants in paper order.
var DeliveryKinds = []DeliveryKind{FLD, RW, GSAKind}

// CacheSize returns node n's current ads-cache population (diagnostics).
func (s *Scheme) CacheSize(n overlay.NodeID) int { return len(s.nodes[n].live()) }
