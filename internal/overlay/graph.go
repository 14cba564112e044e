package overlay

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"asap/internal/netmodel"
)

// NodeID identifies an overlay node: an index into the participant list,
// 0 ≤ id < N. The trace reserves a suffix of the ID space for nodes that
// join mid-run.
type NodeID int32

// Kind names the three topology families of §IV-A.
type Kind uint8

const (
	Random Kind = iota
	PowerLaw
	Crawled
)

// Kinds lists all topology kinds in paper order.
var Kinds = []Kind{Random, PowerLaw, Crawled}

// KindByName resolves a topology label (including "superpeer") to its
// Kind — the inverse of String, shared by every name-keyed surface
// (cluster Hello validation, the serving-plane configuration).
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == name {
			return k, nil
		}
	}
	if SuperPeerKind.String() == name {
		return SuperPeerKind, nil
	}
	return 0, fmt.Errorf("overlay: unknown topology %q", name)
}

// String returns the paper's topology label.
func (k Kind) String() string {
	switch k {
	case Random:
		return "random"
	case PowerLaw:
		return "powerlaw"
	case Crawled:
		return "crawled"
	case SuperPeerKind:
		return "superpeer"
	default:
		return "invalid"
	}
}

// Graph is a mutable overlay topology over physical hosts. Reads
// (Neighbors, Alive, Latency, the live views) are safe concurrently;
// mutations (Join, Leave, AddEdge) must be externally serialised against
// reads.
//
// Adjacency is stored CSR-style: node v's neighbours live in the flat
// edge arena at edges[off[v] : off[v]+deg[v]], inside a segment of
// capacity segCap[v]. Appends fill the segment in place; when a segment
// is full it relocates to the end of the arena with doubled capacity
// (amortised O(1), the old slots become holes). Element order within a
// segment follows exactly the append/swap-remove history the old
// [][]NodeID rows had, so every neighbour iteration — and therefore every
// RNG draw that consumes one — replays byte-identically.
//
// Alongside the adjacency, the graph maintains packed *live views*:
// liveAdj holds, per node and in adjacency order, only the currently
// alive neighbours, liveLat each of those edges' latency at the same
// index (and supAdj, on super-peer graphs, only the alive super-peer
// neighbours). The views share off/segCap with the edge arena and are
// updated incrementally at every mutation — edge insertion appends, edge
// removal and liveness flips rebuild the affected segments (O(degree), on
// the rare churn path) — so delivery and search hot loops iterate a
// pre-filtered slice instead of re-testing Alive per edge, and read an
// edge's latency sequentially instead of resolving it per copy.
type Graph struct {
	kind   Kind
	hosts  []netmodel.PhysID
	locs   []netmodel.Loc // hosts resolved once; immutable, shared by clones
	alive  []bool
	live   int
	avgDeg float64
	net    *netmodel.Network
	rng    *rand.Rand // structural randomness (join wiring, leaf rehoming)
	rngSrc *rand.PCG  // rng's source, kept so Clone can snapshot its state

	// CSR adjacency + live views (see type comment).
	edges   []NodeID // adjacency arena
	liveAdj []NodeID // alive neighbours, adjacency order; shares off/segCap
	liveLat []int32  // liveAdj's edge latencies (ms), index for index
	supAdj  []NodeID // alive super-peer neighbours (SuperPeerKind only)
	off     []int32  // per-node segment start
	deg     []int32  // adjacency length
	liveDeg []int32  // live-view length (liveDeg[v] ≤ deg[v])
	supDeg  []int32  // live-super-view length (nil on flat topologies)
	segCap  []int32  // per-node segment capacity (shared by all arenas)

	// Two-tier state (SuperPeerKind only; nil on flat topologies).
	super       []bool
	parent      []NodeID
	lastRehomed []NodeID
}

// newGraph allocates an overlay of n nodes over the given hosts with no
// edges and everyone dead.
func newGraph(kind Kind, net *netmodel.Network, hosts []netmodel.PhysID, avgDeg float64) *Graph {
	if len(hosts) == 0 {
		panic("overlay: no hosts")
	}
	n := len(hosts)
	src := rand.NewPCG(uint64(n), 0x6a09e667f3bcc908)
	locs := make([]netmodel.Loc, n)
	for i, h := range hosts {
		locs[i] = net.Resolve(h)
	}
	g := &Graph{
		kind:    kind,
		hosts:   hosts,
		locs:    locs,
		alive:   make([]bool, n),
		avgDeg:  avgDeg,
		net:     net,
		rng:     rand.New(src),
		rngSrc:  src,
		off:     make([]int32, n),
		deg:     make([]int32, n),
		liveDeg: make([]int32, n),
		segCap:  make([]int32, n),
	}
	if kind == SuperPeerKind {
		g.super = make([]bool, n)
		g.parent = make([]NodeID, n)
		for i := range g.parent {
			g.parent[i] = -1
		}
		g.supDeg = make([]int32, n)
	}
	return g
}

// Clone returns a structurally independent deep copy: the flat adjacency
// and live-view arenas, liveness and two-tier state are copied; the
// immutable host mapping and physical network are shared. Copying the
// arenas is a constant number of allocations however large the overlay —
// the property that lets one Lab generate each topology once and stamp
// out per-run copies (the old [][]NodeID layout paid one allocation per
// row). The clone's structural RNG resumes from the original's current
// state, so a clone of a freshly generated graph behaves bit-for-bit like
// regenerating it.
func (g *Graph) Clone() *Graph {
	state, err := g.rngSrc.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("overlay: snapshotting rng: %v", err))
	}
	src := &rand.PCG{}
	if err := src.UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("overlay: restoring rng: %v", err))
	}
	c := &Graph{
		kind:    g.kind,
		hosts:   g.hosts,
		locs:    g.locs,
		alive:   slices.Clone(g.alive),
		live:    g.live,
		avgDeg:  g.avgDeg,
		net:     g.net,
		rng:     rand.New(src),
		rngSrc:  src,
		edges:   slices.Clone(g.edges),
		liveAdj: slices.Clone(g.liveAdj),
		liveLat: slices.Clone(g.liveLat),
		supAdj:  slices.Clone(g.supAdj),
		off:     slices.Clone(g.off),
		deg:     slices.Clone(g.deg),
		liveDeg: slices.Clone(g.liveDeg),
		supDeg:  slices.Clone(g.supDeg),
		segCap:  slices.Clone(g.segCap),
	}
	if g.super != nil {
		c.super = slices.Clone(g.super)
		c.parent = slices.Clone(g.parent)
		c.lastRehomed = slices.Clone(g.lastRehomed)
	}
	return c
}

// Kind returns the topology family.
func (g *Graph) Kind() Kind { return g.kind }

// N returns the total overlay size, including not-yet-joined reserves.
func (g *Graph) N() int { return len(g.off) }

// Alive reports whether v currently participates.
func (g *Graph) Alive(v NodeID) bool { return g.alive[v] }

// LiveCount returns the number of participating nodes.
func (g *Graph) LiveCount() int { return g.live }

// Host returns v's physical host.
func (g *Graph) Host(v NodeID) netmodel.PhysID { return g.hosts[v] }

// Neighbors returns v's adjacency list as a shared view into the edge
// arena; it may include dead nodes, which message forwarding must skip.
// The slice is valid until the next graph mutation.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	o, d := g.off[v], g.deg[v]
	return g.edges[o : o+d : o+d]
}

// LiveNeighbors returns v's currently alive neighbours in adjacency
// order, as a shared view into the live arena — the pre-filtered list
// forwarding hot loops iterate instead of testing Alive per edge. The
// slice is valid until the next graph mutation.
func (g *Graph) LiveNeighbors(v NodeID) []NodeID {
	o, d := g.off[v], g.liveDeg[v]
	return g.liveAdj[o : o+d : o+d]
}

// LiveEdges returns LiveNeighbors(v) and, index for index, each edge's
// Latency in ms, read from the live latency arena instead of resolved per
// call. Both are shared views, valid until the next graph mutation.
func (g *Graph) LiveEdges(v NodeID) ([]NodeID, []int32) {
	o, d := g.off[v], g.liveDeg[v]
	return g.liveAdj[o : o+d : o+d], g.liveLat[o : o+d : o+d]
}

// LiveSuperNeighbors returns v's alive super-peer neighbours in adjacency
// order (nil on flat topologies) — the cache-eligible view hierarchical
// ad delivery iterates. The slice is valid until the next graph mutation.
func (g *Graph) LiveSuperNeighbors(v NodeID) []NodeID {
	if g.supDeg == nil {
		return nil
	}
	o, d := g.off[v], g.supDeg[v]
	return g.supAdj[o : o+d : o+d]
}

// Degree returns the size of v's adjacency list (dead neighbours included).
func (g *Graph) Degree(v NodeID) int { return int(g.deg[v]) }

// Latency returns the physical shortest-path latency in milliseconds
// between two overlay nodes. Hosts are resolved to climb vectors once at
// construction, so each call is two array reads and one O(1) distance.
func (g *Graph) Latency(a, b NodeID) int {
	return g.net.LocDistance(g.locs[a], g.locs[b])
}

// TargetDegree returns the generator's average-degree target; Join uses it
// to size a joining node's connection fan-out.
func (g *Graph) TargetDegree() float64 { return g.avgDeg }

// growSeg relocates v's segment to the end of the arenas with at least
// doubled capacity. All four arenas move together so they keep sharing
// off/segCap.
func (g *Graph) growSeg(v NodeID) {
	newCap := g.segCap[v] * 2
	if newCap < 4 {
		newCap = 4
	}
	newOff := int32(len(g.edges))
	newLen := int(newOff + newCap)
	g.edges = append(g.edges, make([]NodeID, newCap)...)
	g.liveAdj = append(g.liveAdj, make([]NodeID, newCap)...)
	g.liveLat = append(g.liveLat, make([]int32, newCap)...)
	if g.supDeg != nil {
		g.supAdj = append(g.supAdj, make([]NodeID, newCap)...)
	}
	o := g.off[v]
	copy(g.edges[newOff:newLen], g.edges[o:o+g.deg[v]])
	copy(g.liveAdj[newOff:newLen], g.liveAdj[o:o+g.liveDeg[v]])
	copy(g.liveLat[newOff:newLen], g.liveLat[o:o+g.liveDeg[v]])
	if g.supDeg != nil {
		copy(g.supAdj[newOff:newLen], g.supAdj[o:o+g.supDeg[v]])
	}
	g.off[v] = newOff
	g.segCap[v] = newCap
}

// appendNeighbor appends u to v's adjacency segment and, when u is alive,
// to the matching live view(s). Appending keeps the views' invariant for
// free: u is last in adjacency order, so it belongs last in every view.
func (g *Graph) appendNeighbor(v, u NodeID) {
	if g.deg[v] == g.segCap[v] {
		g.growSeg(v)
	}
	o := g.off[v]
	g.edges[o+g.deg[v]] = u
	g.deg[v]++
	if g.alive[u] {
		g.liveAdj[o+g.liveDeg[v]] = u
		g.liveLat[o+g.liveDeg[v]] = int32(g.Latency(v, u))
		g.liveDeg[v]++
		if g.supDeg != nil && g.super[u] {
			g.supAdj[o+g.supDeg[v]] = u
			g.supDeg[v]++
		}
	}
}

// rebuildLive recomputes v's live view(s) from its adjacency segment —
// the repair step after an edge removal or a neighbour liveness flip
// (both rare, churn-path events).
func (g *Graph) rebuildLive(v NodeID) {
	o := g.off[v]
	n, ns := int32(0), int32(0)
	for i := int32(0); i < g.deg[v]; i++ {
		nb := g.edges[o+i]
		if !g.alive[nb] {
			continue
		}
		g.liveAdj[o+n] = nb
		g.liveLat[o+n] = int32(g.Latency(v, nb))
		n++
		if g.supDeg != nil && g.super[nb] {
			g.supAdj[o+ns] = nb
			ns++
		}
	}
	g.liveDeg[v] = n
	if g.supDeg != nil {
		g.supDeg[v] = ns
	}
}

// hasEdge reports whether an a–b edge exists.
func (g *Graph) hasEdge(a, b NodeID) bool {
	// Scan the shorter list.
	if g.deg[a] > g.deg[b] {
		a, b = b, a
	}
	for _, x := range g.Neighbors(a) {
		if x == b {
			return true
		}
	}
	return false
}

// AddEdge inserts an undirected edge; duplicate and self edges are
// rejected with a false return.
func (g *Graph) AddEdge(a, b NodeID) bool {
	if a == b || g.hasEdge(a, b) {
		return false
	}
	g.appendNeighbor(a, b)
	g.appendNeighbor(b, a)
	return true
}

// RemoveEdge erases an undirected a–b edge and repairs both live views.
// Missing and self edges are rejected with a false return, as are
// super-peer parent links — a leaf's uplink is structural and rewiring
// must not orphan it.
func (g *Graph) RemoveEdge(a, b NodeID) bool {
	if a == b || !g.hasEdge(a, b) {
		return false
	}
	if g.parent != nil && (g.parent[a] == b || g.parent[b] == a) {
		return false
	}
	g.removeNeighbor(a, b)
	g.removeNeighbor(b, a)
	return true
}

// setAlive flips liveness bookkeeping and repairs the live views of every
// neighbour (a node's own views do not depend on its own liveness).
func (g *Graph) setAlive(v NodeID, up bool) {
	if g.alive[v] == up {
		return
	}
	g.alive[v] = up
	if up {
		g.live++
	} else {
		g.live--
	}
	for _, u := range g.Neighbors(v) {
		g.rebuildLive(u)
	}
}

// Leave detaches v ungracefully: it stops participating and its edges are
// dropped from both endpoints. State cached about v elsewhere (ads!) is
// not touched — that staleness is the phenomenon ASAP's refresh machinery
// addresses. On a super-peer topology, a departing super peer's orphaned
// leaves are immediately re-homed to surviving super peers (the leaves
// notice the broken connection and reconnect); TakeRehomed reports them.
func (g *Graph) Leave(v NodeID) {
	if !g.alive[v] {
		return
	}
	g.setAlive(v, false)
	var orphans []NodeID
	for _, u := range g.Neighbors(v) {
		g.removeNeighbor(u, v)
		if g.super != nil && g.super[v] && !g.super[u] && g.parent[u] == v {
			g.parent[u] = -1
			orphans = append(orphans, u)
		}
	}
	g.deg[v] = 0
	g.liveDeg[v] = 0
	if g.supDeg != nil {
		g.supDeg[v] = 0
	}
	if g.super != nil {
		if g.super[v] {
			g.lastRehomed = append(g.lastRehomed, g.rehomeOrphans(orphans, g.rng)...)
		} else {
			g.parent[v] = -1
		}
	}
}

// removeNeighbor erases v from u's adjacency segment (swap-remove, the
// same order transformation the old slice rows applied) and repairs u's
// live views.
func (g *Graph) removeNeighbor(u, v NodeID) {
	o, d := g.off[u], g.deg[u]
	for i := int32(0); i < d; i++ {
		if g.edges[o+i] == v {
			g.edges[o+i] = g.edges[o+d-1]
			g.deg[u] = d - 1
			g.rebuildLive(u)
			return
		}
	}
}

// TakeRehomed returns and clears the leaves re-homed by super-peer
// departures since the last call; schemes use it to refresh the new
// parents' aggregate ads.
func (g *Graph) TakeRehomed() []NodeID {
	out := g.lastRehomed
	g.lastRehomed = nil
	return out
}

// Join activates v and wires it to round(TargetDegree) randomly chosen live
// peers (fewer if the overlay is smaller). It reports the chosen
// neighbours.
func (g *Graph) Join(v NodeID, rng *rand.Rand) []NodeID {
	if g.alive[v] {
		return nil
	}
	g.setAlive(v, true)
	if g.kind == SuperPeerKind {
		return g.joinSuperPeer(v, rng)
	}
	want := int(g.avgDeg + 0.5)
	if want < 1 {
		want = 1
	}
	for tries := 0; tries < want*20 && g.Degree(v) < want && g.live > 1; tries++ {
		u := NodeID(rng.IntN(g.N()))
		if u == v || !g.alive[u] {
			continue
		}
		g.AddEdge(v, u)
	}
	return g.Neighbors(v)
}

// Activate marks v live without wiring (used when installing the initial
// participant set whose edges the generator already created).
func (g *Graph) Activate(v NodeID) { g.setAlive(v, true) }

// AvgLiveDegree returns the mean adjacency size over live nodes.
func (g *Graph) AvgLiveDegree() float64 {
	if g.live == 0 {
		return 0
	}
	total := 0
	for v := range g.deg {
		if g.alive[v] {
			total += int(g.deg[v])
		}
	}
	return float64(total) / float64(g.live)
}

// DegreeHistogram returns counts of live-node degrees up to maxDeg; the
// last bucket aggregates everything ≥ maxDeg.
func (g *Graph) DegreeHistogram(maxDeg int) []int {
	h := make([]int, maxDeg+1)
	for v := range g.deg {
		if !g.alive[v] {
			continue
		}
		d := int(g.deg[v])
		if d > maxDeg {
			d = maxDeg
		}
		h[d]++
	}
	return h
}

// LargestComponent returns the size of the largest connected component of
// the live subgraph.
func (g *Graph) LargestComponent() int {
	seen := make([]bool, g.N())
	best := 0
	queue := make([]NodeID, 0, 64)
	for s := 0; s < g.N(); s++ {
		if seen[s] || !g.alive[s] {
			continue
		}
		size := 0
		seen[s] = true
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, w := range g.LiveNeighbors(u) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return best
}

// repairConnectivity links the live components of freshly generated
// topologies into one, by adding one random edge per extra component. It
// assumes all nodes in [0, n) are live.
func (g *Graph) repairConnectivity(n int, rng *rand.Rand) {
	if n == 0 {
		return
	}
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var roots []NodeID
	queue := make([]NodeID, 0, 64)
	next := int32(0)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		roots = append(roots, NodeID(s))
		comp[s] = next
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(u) {
				if comp[w] == -1 {
					comp[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	for i := 1; i < len(roots); i++ {
		// Bridge each extra component to a random node of component 0's
		// growing union.
		for {
			u := NodeID(rng.IntN(n))
			if comp[u] != comp[roots[i]] {
				g.AddEdge(roots[i], u)
				break
			}
		}
	}
}

func (g *Graph) String() string {
	return fmt.Sprintf("overlay{%s n=%d live=%d avgdeg=%.2f}", g.kind, g.N(), g.live, g.AvgLiveDegree())
}
