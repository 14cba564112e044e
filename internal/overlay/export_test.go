package overlay

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// TargetDegree returns the generator's average-degree target; Join uses it
// to size a joining node's connection fan-out.
func (g *Graph) TargetDegree() float64 { return g.avgDeg }

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
