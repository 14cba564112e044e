package netmodel

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// Config returns the configuration the network was generated from.
func (nw *Network) Config() Config { return nw.cfg }

// NumTransit returns the number of transit nodes.
func (nw *Network) NumTransit() int { return nw.numTransit }

// IsTransit reports whether id is a transit node.
func (nw *Network) IsTransit(id PhysID) bool { return int(id) < nw.numTransit }

// Distance returns the shortest-path latency in milliseconds between two
// physical nodes. Paths follow the transit-stub hierarchy: stub→gateway→
// parent transit→backbone→parent transit→gateway→stub. Within one stub
// domain the direct intra-domain path is always at least as short as a
// detour through the parent (hop counts obey the triangle inequality and
// the uplink alone costs more than two intra-stub hops), so it is used
// directly.
func (nw *Network) Distance(a, b PhysID) int {
	if a == b {
		return 0
	}
	la, lb := nw.locate(a), nw.locate(b)
	switch {
	case la.transit && lb.transit:
		return nw.transitDist(la.local, lb.local)
	case la.transit:
		db := &nw.domains[lb.domain]
		return nw.transitDist(la.local, db.parent) + nw.climb(db, lb.local)
	case lb.transit:
		da := &nw.domains[la.domain]
		return nw.climb(da, la.local) + nw.transitDist(da.parent, lb.local)
	case la.domain == lb.domain:
		d := &nw.domains[la.domain]
		return d.stubHops(la.local, lb.local) * nw.cfg.LatIntraStub
	default:
		da, db := &nw.domains[la.domain], &nw.domains[lb.domain]
		return nw.climb(da, la.local) + nw.transitDist(da.parent, db.parent) + nw.climb(db, lb.local)
	}
}

// DomainOf returns the stub-domain index of id, or -1 for transit nodes.
// Exposed for locality-aware tests and diagnostics.
func (nw *Network) DomainOf(id PhysID) int {
	l := nw.locate(id)
	if l.transit {
		return -1
	}
	return int(l.domain)
}

// MaxDistance returns an upper bound on any pairwise latency: two maximal
// climbs plus the backbone diameter.
func (nw *Network) MaxDistance() int {
	maxT := 0
	for _, d := range nw.tdist {
		if int(d) > maxT {
			maxT = int(d)
		}
	}
	maxClimb := 0
	for i := range nw.domains {
		d := &nw.domains[i]
		for l := int32(0); l < d.n; l++ {
			if c := nw.climb(d, l); c > maxClimb {
				maxClimb = c
			}
		}
	}
	return 2*maxClimb + maxT
}
