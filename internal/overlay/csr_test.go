package overlay

import (
	"math/rand/v2"
	"slices"
	"testing"

	"asap/internal/netmodel"
)

// referenceLive recomputes v's live view the way the pre-CSR code did:
// a filtered scan of the adjacency list in order.
func referenceLive(g *Graph, v NodeID) []NodeID {
	var out []NodeID
	for _, nb := range g.Neighbors(v) {
		if g.Alive(nb) {
			out = append(out, nb)
		}
	}
	return out
}

func referenceLiveSuper(g *Graph, v NodeID) []NodeID {
	var out []NodeID
	for _, nb := range g.Neighbors(v) {
		if g.Alive(nb) && g.IsSuper(nb) {
			out = append(out, nb)
		}
	}
	return out
}

// checkViews pins the incrementally maintained views against the
// reference scans for every node, including dead and reserve nodes, and
// every live-view latency against Latency.
func checkViews(t *testing.T, g *Graph, when string) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		id := NodeID(v)
		if want, got := referenceLive(g, id), g.LiveNeighbors(id); !slices.Equal(want, got) {
			t.Fatalf("%s: LiveNeighbors(%d) = %v, want %v (adj %v)", when, v, got, want, g.Neighbors(id))
		}
		view, lat := g.LiveEdges(id)
		if !slices.Equal(view, g.LiveNeighbors(id)) || len(lat) != len(view) {
			t.Fatalf("%s: LiveEdges(%d) = %v with %d latencies, want %v", when, v, view, len(lat), g.LiveNeighbors(id))
		}
		for i, nb := range view {
			if want := g.Latency(id, nb); int(lat[i]) != want {
				t.Fatalf("%s: LiveEdges(%d) latency to %d = %d, want %d", when, v, nb, lat[i], want)
			}
		}
		if g.Kind() == SuperPeerKind {
			if want, got := referenceLiveSuper(g, id), g.LiveSuperNeighbors(id); !slices.Equal(want, got) {
				t.Fatalf("%s: LiveSuperNeighbors(%d) = %v, want %v", when, v, got, want)
			}
		} else if g.LiveSuperNeighbors(id) != nil {
			t.Fatalf("%s: LiveSuperNeighbors(%d) non-nil on flat topology", when, v)
		}
	}
}

// TestLiveViewMatchesReferenceUnderChurn is the CSR equivalence property
// test: across all three flat topologies plus the super-peer hierarchy,
// the packed live views and their latencies must equal the old filtered
// [][]NodeID reference scan after every single mutation — joins,
// ungraceful leaves (the overlay's graceful-leave path is the same
// detach), super-peer departures that trigger leaf rehoming, and the
// rewiring edge swaps (AddEdge, RemoveEdge).
func TestLiveViewMatchesReferenceUnderChurn(t *testing.T) {
	hosts := testHosts(t, 400, 31)
	kinds := append(append([]Kind(nil), Kinds...), SuperPeerKind)
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			g := New(k, testNet, hosts, 320, rand.New(rand.NewPCG(31, uint64(k))))
			checkViews(t, g, "fresh")
			rng := rand.New(rand.NewPCG(32, uint64(k)))
			joined := 320
			supersLeft, added, removed := 0, 0, 0
			for i := 0; i < 400; i++ {
				switch {
				case rng.Float64() < 0.3 && joined < 400:
					g.Join(NodeID(joined), rng)
					joined++
					checkViews(t, g, "after join")
				case rng.Float64() < 0.3:
					// Rewiring, as the scenario director does it: a live node
					// drops a live neighbour, then attaches to a live node.
					v := NodeID(rng.IntN(joined))
					nbs := g.LiveNeighbors(v)
					if !g.Alive(v) || len(nbs) == 0 {
						continue
					}
					if g.RemoveEdge(v, nbs[rng.IntN(len(nbs))]) {
						removed++
					}
					checkViews(t, g, "after remove edge")
					if u := NodeID(rng.IntN(joined)); g.Alive(u) && g.AddEdge(v, u) {
						added++
					}
					checkViews(t, g, "after add edge")
				case k == SuperPeerKind && rng.Float64() < 0.3 && supersLeft < 8:
					// Force super-peer departures so orphan rehoming — the
					// path that rewires many leaves at once — gets exercised.
					if sps := g.Supers(); len(sps) > 2 {
						g.Leave(sps[rng.IntN(len(sps))])
						supersLeft++
						checkViews(t, g, "after super leave")
					}
				default:
					g.Leave(NodeID(rng.IntN(joined)))
					checkViews(t, g, "after leave")
				}
			}
			if k == SuperPeerKind && supersLeft == 0 {
				t.Fatal("churn never removed a super peer; rehoming untested")
			}
			if added == 0 || removed == 0 {
				t.Fatalf("rewiring added %d and removed %d edges; both must be exercised", added, removed)
			}
			// Cloning mid-churn must preserve the views too.
			checkViews(t, g.Clone(), "clone")
		})
	}
}

// TestCloneAllocsFlat pins the CSR payoff on Clone: copying the flat
// arenas costs a constant number of allocations regardless of overlay
// size (the old [][]NodeID layout paid one per node).
func TestCloneAllocsFlat(t *testing.T) {
	bigNet := netmodel.Generate(netmodel.DefaultConfig())
	small := NewRandom(testNet, testHosts(t, 200, 33), 200, 5, rand.New(rand.NewPCG(33, 0)))
	large := NewRandom(bigNet, bigNet.RandomNodes(3000, rand.New(rand.NewPCG(34, 0))), 3000, 5, rand.New(rand.NewPCG(34, 0)))
	allocs := func(g *Graph) float64 {
		return testing.AllocsPerRun(10, func() { _ = g.Clone() })
	}
	aSmall, aLarge := allocs(small), allocs(large)
	if aSmall != aLarge {
		t.Errorf("Clone allocations scale with graph size: %v at n=200 vs %v at n=3000", aSmall, aLarge)
	}
	if aLarge > 24 {
		t.Errorf("Clone costs %v allocations, want a small constant (≤24)", aLarge)
	}
}
