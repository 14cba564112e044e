package netmodel

import (
	"fmt"
	"math/rand/v2"
)

// loc resolves a PhysID into its position in the hierarchy.
type loc struct {
	transit bool
	domain  int32 // stub-domain index (stub nodes only)
	local   int32 // index within the stub domain, or transit node index
}

func (nw *Network) locate(id PhysID) loc {
	if int(id) < nw.numTransit {
		return loc{transit: true, local: int32(id)}
	}
	s := int(id) - nw.numTransit
	per := nw.cfg.StubPerDomain
	d := s / per
	if d >= len(nw.domains) {
		panic(fmt.Sprintf("netmodel: PhysID %d out of range (%d nodes)", id, nw.TotalNodes()))
	}
	return loc{domain: int32(d), local: int32(s % per)}
}

// transitDist returns the backbone latency between transit nodes a and b.
func (nw *Network) transitDist(a, b int32) int {
	return int(nw.tdist[int(a)*nw.numTransit+int(b)])
}

// stubHops returns BFS hop count between two nodes of one stub domain.
func (d *stubDomain) stubHops(a, b int32) int {
	return int(d.hops[int(a)*int(d.n)+int(b)])
}

// climb returns the latency from stub node l of domain d up to the domain's
// parent transit node: intra-stub hops to the gateway plus the 5 ms uplink.
func (nw *Network) climb(d *stubDomain, local int32) int {
	return d.stubHops(local, d.gateway)*nw.cfg.LatIntraStub + nw.cfg.LatTransitStub
}

// Loc is a resolved physical location: id's coordinates in the
// transit-stub hierarchy plus its precomputed climb cost to the backbone.
// Two Locs make pairwise latency an O(1) arithmetic (LocDistance) with no
// per-call locate division or gateway BFS-table walk. Overlay graphs
// resolve every host once at build time and share the vector across
// clones.
type Loc struct {
	Domain int32 // stub-domain index, or -1 for transit nodes
	Local  int32 // index within the stub domain, or transit node index
	Parent int32 // parent transit node (the node itself for transit nodes)
	Climb  int32 // ms from the node up to Parent (0 for transit nodes)
}

// Resolve returns id's location with the climb to its parent transit node
// precomputed.
func (nw *Network) Resolve(id PhysID) Loc {
	l := nw.locate(id)
	if l.transit {
		return Loc{Domain: -1, Local: l.local, Parent: l.local}
	}
	d := &nw.domains[l.domain]
	return Loc{Domain: l.domain, Local: l.local, Parent: d.parent, Climb: int32(nw.climb(d, l.local))}
}

// LocDistance is Distance over two resolved locations: on the cross-domain
// path it costs two precomputed climbs and one backbone-matrix lookup;
// within one stub domain it is a single hop-matrix read. It agrees with
// Distance(a, b) on every node pair (see TestLocDistanceAgreesWithDistance).
func (nw *Network) LocDistance(a, b Loc) int {
	if a.Domain == b.Domain && a.Domain >= 0 {
		// Same stub domain (including a == b: zero hops). The -1 transit
		// pseudo-domain must not take this branch — transit pairs have no
		// hop matrix — hence the a.Domain >= 0 guard.
		return nw.domains[a.Domain].stubHops(a.Local, b.Local) * nw.cfg.LatIntraStub
	}
	// Every other pair climbs to the backbone: a transit node's climb is 0
	// and its parent is itself, so the transit cases collapse into this
	// expression (tdist of a node to itself is 0).
	return int(a.Climb) + nw.transitDist(a.Parent, b.Parent) + int(b.Climb)
}

// RandomNodes samples k distinct physical node IDs uniformly. The paper
// randomly selects 10,000 P2P participants out of all 51,984 physical
// nodes. It panics if k exceeds the universe size.
func (nw *Network) RandomNodes(k int, rng *rand.Rand) []PhysID {
	n := nw.TotalNodes()
	if k > n {
		panic(fmt.Sprintf("netmodel: cannot sample %d of %d nodes", k, n))
	}
	// Partial Fisher–Yates over the full ID space.
	ids := make([]PhysID, n)
	for i := range ids {
		ids[i] = PhysID(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.IntN(n-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}
