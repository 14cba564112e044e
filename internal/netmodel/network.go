package netmodel

import (
	"container/heap"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
)

// PhysID identifies a physical node. Transit nodes occupy [0, NumTransit);
// stub nodes follow, grouped by stub domain.
type PhysID int32

// Network is a generated transit-stub universe with an O(1) shortest-path
// latency oracle. It is immutable after Generate and safe for concurrent
// use.
type Network struct {
	cfg        Config
	numTransit int

	// tdist[i*numTransit+j] is the shortest-path latency in ms between
	// transit nodes i and j.
	tdist []uint16

	// One entry per stub domain, in PhysID order.
	domains []stubDomain
}

// stubDomain holds a stub domain's parent attachment and its all-pairs hop
// matrix (every intra-stub edge has the same latency, so shortest paths are
// BFS hop counts).
type stubDomain struct {
	parent  int32   // transit node the domain attaches to
	gateway int32   // local index of the stub node carrying the uplink
	n       int32   // nodes in the domain
	hops    []uint8 // n×n BFS hop counts
}

// Generate builds a universe from cfg. It panics on an invalid
// configuration (validated explicitly so simulator setup fails fast).
func Generate(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nw := &Network{cfg: cfg, numTransit: cfg.NumTransit()}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
	nw.buildTransit(rng)
	nw.buildStubDomains(rng)
	return nw
}

// TotalNodes returns the number of physical nodes.
func (nw *Network) TotalNodes() int { return nw.cfg.TotalNodes() }

// buildTransit constructs the 144-node backbone and its all-pairs distance
// matrix. Each domain gets a random Hamiltonian path (connectivity) plus
// probabilistic intra-domain edges; each domain pair gets one inter-domain
// edge between uniformly chosen endpoints ("nine transit domains at the top
// level are fully connected").
func (nw *Network) buildTransit(rng *rand.Rand) {
	n := nw.numTransit
	per := nw.cfg.TransitPerDomain
	adj := make([][]edge, n)

	addEdge := func(a, b int, w uint16) {
		adj[a] = append(adj[a], edge{to: int32(b), w: w})
		adj[b] = append(adj[b], edge{to: int32(a), w: w})
	}

	for d := 0; d < nw.cfg.TransitDomains; d++ {
		base := d * per
		// Hamiltonian path over a random permutation keeps the domain
		// connected regardless of the probabilistic edges.
		perm := rng.Perm(per)
		for i := 1; i < per; i++ {
			addEdge(base+perm[i-1], base+perm[i], uint16(nw.cfg.LatIntraTransit))
		}
		for i := 0; i < per; i++ {
			for j := i + 1; j < per; j++ {
				if rng.Float64() < nw.cfg.PIntraTransit && !containsEdge(adj[base+i], int32(base+j)) {
					addEdge(base+i, base+j, uint16(nw.cfg.LatIntraTransit))
				}
			}
		}
	}
	for d1 := 0; d1 < nw.cfg.TransitDomains; d1++ {
		for d2 := d1 + 1; d2 < nw.cfg.TransitDomains; d2++ {
			a := d1*per + rng.IntN(per)
			b := d2*per + rng.IntN(per)
			addEdge(a, b, uint16(nw.cfg.LatInterTransit))
		}
	}

	nw.tdist = make([]uint16, n*n)
	for src := 0; src < n; src++ {
		dijkstra(adj, src, nw.tdist[src*n:(src+1)*n])
	}
}

// buildStubDomains constructs every stub domain and its BFS hop matrix,
// fanning the work out across CPUs (domain construction is independent).
func (nw *Network) buildStubDomains(rng *rand.Rand) {
	per := nw.cfg.StubPerDomain
	total := nw.numTransit * nw.cfg.StubDomainsPerTransit
	nw.domains = make([]stubDomain, total)

	// Pre-draw each domain's RNG seed from the master stream so the result
	// is deterministic regardless of goroutine scheduling.
	seeds := make([]uint64, total)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (total + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, total)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for d := lo; d < hi; d++ {
				drng := rand.New(rand.NewPCG(seeds[d], uint64(d)))
				nw.domains[d] = buildStubDomain(int32(d/nw.cfg.StubDomainsPerTransit), per, nw.cfg.PIntraStub, drng)
			}
		}(lo, hi)
	}
	wg.Wait()
}

func buildStubDomain(parent int32, n int, p float64, rng *rand.Rand) stubDomain {
	// Adjacency as bit rows: node i's neighbours are the set bits of
	// adj[i*w : (i+1)*w], so the duplicate-edge test is one bit test and a
	// BFS level is a word-parallel OR of rows.
	w := (n + 63) / 64
	adj := make([]uint64, n*w)
	addEdge := func(a, b int) {
		adj[a*w+b>>6] |= 1 << (b & 63)
		adj[b*w+a>>6] |= 1 << (a & 63)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(perm[i-1], perm[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// The draw comes first for every pair, edge or not, so the
			// number of draws (and with it the gateway drawn after them)
			// depends on n alone.
			if rng.Float64() < p && adj[i*w+j>>6]&(1<<(j&63)) == 0 {
				addEdge(i, j)
			}
		}
	}
	d := stubDomain{parent: parent, gateway: int32(rng.IntN(n)), n: int32(n), hops: make([]uint8, n*n)}
	fillHops(adj, n, d.hops)
	return d
}

// fillHops writes the n×n BFS hop counts of the bit-row adjacency adj
// (⌈n/64⌉ words per row) into hops, 0xFF marking an unreached pair. Each
// source runs a level-synchronous BFS: the next frontier is the OR of the
// frontier's rows minus the seen set, so a level costs one pass of word
// ORs per frontier node. Hop counts stay below 0xFF because
// Config.Validate caps a domain at 255 nodes.
func fillHops(adj []uint64, n int, hops []uint8) {
	w := (n + 63) / 64
	for i := range hops {
		hops[i] = 0xFF
	}
	scratch := make([]uint64, 3*w)
	seen, frontier, next := scratch[:w], scratch[w:2*w], scratch[2*w:]
	for src := 0; src < n; src++ {
		row := hops[src*n : (src+1)*n]
		row[src] = 0
		clear(seen)
		clear(frontier)
		seen[src>>6] = 1 << (src & 63)
		frontier[src>>6] = 1 << (src & 63)
		for level := uint8(1); ; level++ {
			clear(next)
			for k, word := range frontier {
				for ; word != 0; word &= word - 1 {
					u := k<<6 + bits.TrailingZeros64(word)
					for x, r := range adj[u*w : (u+1)*w] {
						next[x] |= r
					}
				}
			}
			grew := false
			for k := range next {
				word := next[k] &^ seen[k]
				next[k] = word
				seen[k] |= word
				for ; word != 0; word &= word - 1 {
					row[k<<6+bits.TrailingZeros64(word)] = level
					grew = true
				}
			}
			if !grew {
				break
			}
			frontier, next = next, frontier
		}
	}
}

type edge struct {
	to int32
	w  uint16
}

func containsEdge(es []edge, to int32) bool {
	for _, e := range es {
		if e.to == to {
			return true
		}
	}
	return false
}

// dijkstra fills dist with shortest-path latencies from src over adj.
func dijkstra(adj [][]edge, src int, dist []uint16) {
	const inf = ^uint16(0)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	pq := &distHeap{{node: int32(src), d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue
		}
		for _, e := range adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{node: e.to, d: nd})
			}
		}
	}
}

type distItem struct {
	node int32
	d    uint16
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
