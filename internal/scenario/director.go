package scenario

import (
	"fmt"
	"math/rand/v2"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// frStream and driftStream salt the pure per-node membership hash for
// free-rider and interest-drift selection. Membership is a stateless hash
// of (seed, stream, act, node) — not an RNG draw — so selecting nodes for
// one act can never shift any other random stream.
const (
	frStream    = 0xf8ee51de85eed004
	driftStream = 0xd81f7c1a55eed005
)

// Install wires the staged scenario into a freshly built system: it
// creates the unified fault plane (when the scenario needs one — loss > 0
// or any partition act) and installs the act director, both seeded from
// the scenario.
func (st *Staged) Install(sys *sim.System) {
	seed, loss := st.sn.Seed, st.sn.Loss
	var plane *faults.Plane
	if loss > 0 || st.hasPartition {
		plane = faults.New(faults.Config{Seed: seed, LossRate: loss})
		sys.SetFaults(plane)
	}
	sys.SetDirector(&director{
		sys:   sys,
		plane: plane,
		ops:   st.ops,
		seed:  seed,
		rng:   rand.New(rand.NewPCG(seed, rewireStream)),
	})
}

// director applies staged acts when their trace.Directive events replay.
// The runner invokes Apply on the runner goroutine between query batches,
// so mutations of the system, plane, and overlay need no locking and land
// at a deterministic point of the event order.
type director struct {
	sys   *sim.System
	plane *faults.Plane
	ops   []Act
	seed  uint64
	rng   *rand.Rand // rewire picks only
}

// Apply implements sim.Director.
func (d *director) Apply(t sim.Clock, op int) {
	a := d.ops[op]
	switch a.Kind {
	case Partition:
		k := a.Groups
		if k < 2 {
			k = 2
		}
		n := d.sys.NumNodes()
		group := make([]int8, n)
		for i := range group {
			group[i] = int8(i * k / n)
		}
		d.plane.SetPartition(group)
	case Heal:
		d.plane.SetPartition(nil)
	case FreeRiders:
		if a.Frac <= 0 {
			d.sys.SetFreeRiders(nil)
			return
		}
		n := d.sys.NumNodes()
		mask := make([]bool, n)
		for i := 0; i < n; i++ {
			if nodeHash(d.seed, frStream^uint64(op)<<32, i) < a.Frac {
				mask[i] = true
			}
		}
		d.sys.SetFreeRiders(mask)
	case InterestDrift:
		n := d.sys.NumNodes()
		for i := 0; i < n; i++ {
			if a.Frac < 1 && nodeHash(d.seed, driftStream^uint64(op)<<32, i) >= a.Frac {
				continue
			}
			nd := overlay.NodeID(i)
			d.sys.SetInterests(nd, rotateClasses(d.sys.Interests(nd), a.Shift))
			d.sys.Load.Count(t, metrics.CInterestShift)
		}
	case Rewire:
		d.rewire(t, a)
	default:
		panic(fmt.Sprintf("scenario: directive op %d has non-directive kind %s", op, a.Kind))
	}
}

// rewire performs up to a.Rewires topology adaptations: a live node drops
// one live neighbour it shares no interest class with and attaches to an
// interest-similar live non-neighbour instead (Al-Asfoor & Abed's
// similarity-driven re-attachment, arXiv:2012.13146). Draws come from the
// director's dedicated PCG stream; all bounds are fixed, so the rng
// consumption — and therefore the replay — is deterministic.
func (d *director) rewire(t sim.Clock, a Act) {
	g := d.sys.G
	n := d.sys.NumNodes()
	for att := 0; att < a.Rewires; att++ {
		var v overlay.NodeID = -1
		for tries := 0; tries < 50; tries++ {
			cand := overlay.NodeID(d.rng.IntN(n))
			if g.Alive(cand) && len(g.LiveNeighbors(cand)) >= 2 {
				v = cand
				break
			}
		}
		if v < 0 {
			continue
		}
		vi := d.sys.Interests(v)
		drop := overlay.NodeID(-1)
		for _, nb := range g.LiveNeighbors(v) {
			if !d.sys.Interests(nb).Intersects(vi) {
				drop = nb
				break
			}
		}
		if drop < 0 {
			continue // every neighbour already shares an interest
		}
		add := overlay.NodeID(-1)
		for tries := 0; tries < 50; tries++ {
			cand := overlay.NodeID(d.rng.IntN(n))
			if cand == v || cand == drop || !g.Alive(cand) ||
				!d.sys.Interests(cand).Intersects(vi) || hasLiveEdge(g, v, cand) {
				continue
			}
			add = cand
			break
		}
		if add < 0 {
			continue
		}
		if !g.RemoveEdge(v, drop) {
			continue // super-peer parent link; leave it alone
		}
		if !g.AddEdge(v, add) {
			g.AddEdge(v, drop) // restore — add was a neighbour after all
			continue
		}
		d.sys.Load.Count(t, metrics.CRewire)
	}
}

// hasLiveEdge reports whether u appears in v's live-neighbour view.
func hasLiveEdge(g *overlay.Graph, v, u overlay.NodeID) bool {
	for _, nb := range g.LiveNeighbors(v) {
		if nb == u {
			return true
		}
	}
	return false
}

// nodeHash maps (seed, stream, node) to a uniform float64 in [0,1) via a
// splitmix64 finalizer — the same stateless construction the faults plane
// uses for drop decisions, and like them it consumes no RNG stream.
func nodeHash(seed, stream uint64, node int) float64 {
	x := seed ^ stream ^ uint64(node)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * (1.0 / (1 << 53))
}

// rotateClasses rotates a class set's bits by shift positions within the
// content.NumClasses-wide universe, preserving the interest count.
func rotateClasses(s content.ClassSet, shift int) content.ClassSet {
	const w = content.NumClasses
	const mask = (1 << w) - 1
	shift %= w
	if shift < 0 {
		shift += w
	}
	v := uint32(s) & mask
	return content.ClassSet((v<<shift | v>>(w-shift)) & mask)
}
