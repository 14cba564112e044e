package search

import (
	"fmt"
	"slices"
	"testing"

	"asap/internal/faults"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// TestChoicesAreOrderFree: a baseline walker's path is a function of its
// query's identity and its own index, never of the walkers run before it.
// Re-run alone from the query's key, every walker of a random-walk and of a
// GSA query retraces its record inside the full query step for step —
// nodes, arrival times, match and loss — on a reliable network and at 5 %
// loss with jitter.
func TestChoicesAreOrderFree(t *testing.T) {
	type launch struct {
		start overlay.NodeID
		at    sim.Clock
		ttl   int
	}
	rw, gsa := NewRandomWalk(7), NewGSA(7)
	schemes := []struct {
		scheme   sim.Scheme
		seed     uint64
		sc       func() *scratch
		launches func(sys *sim.System, ev *trace.Event) []launch
	}{
		{rw, rw.Seed, func() *scratch { return rw.sc }, func(_ *sim.System, ev *trace.Event) []launch {
			ls := make([]launch, rw.Walkers)
			for w := range ls {
				ls[w] = launch{ev.Node, ev.Time, rw.TTL}
			}
			return ls
		}},
		{gsa, gsa.Seed, func() *scratch { return gsa.sc }, func(sys *sim.System, ev *trace.Event) []launch {
			seeds, lat := sys.G.LiveEdges(ev.Node)
			var ls []launch
			for w, nb := range seeds {
				perWalker := max(0, gsa.Budget-len(seeds)) / len(seeds)
				ls = append(ls, launch{nb, ev.Time + sim.Clock(lat[w]), perWalker + 1})
			}
			return ls
		}},
	}
	queries := traceQueries()[:60]
	for _, plane := range []*faults.Plane{nil, faults.New(faults.Config{Seed: 9, LossRate: 0.05, JitterMS: 20})} {
		for _, sch := range schemes {
			sys := newSys(t, overlay.Random)
			sys.SetFaults(plane)
			sch.scheme.Attach(sys)
			walkers, lost := 0, 0
			for qi, ev := range queries {
				sch.scheme.Search(ev)
				sc := sch.sc()
				type step struct {
					node overlay.NodeID
					at   sim.Clock
				}
				trail := func(r walkRec) []step {
					var out []step
					for i := r.start; i < r.start+r.steps; i++ {
						out = append(out, step{sc.nodes[i], sc.times[i]})
					}
					return out
				}
				recs := slices.Clone(sc.recs)
				trails := make([][]step, len(recs))
				for w, r := range recs {
					trails[w] = trail(r)
				}
				ls := sch.launches(sys, ev)
				if len(ls) != len(recs) {
					t.Fatalf("%s query %d: %d walkers recorded, %d launched", sch.scheme.Name(), qi, len(recs), len(ls))
				}
				for w := len(ls) - 1; w >= 0; w-- { // last to first, each alone
					sc.begin(faults.Key(ev.Time, ev.Node))
					sc.resolve(sys, ev.Terms)
					l := ls[w]
					alone := runWalker(sys, sc, sc.fkey^sch.seed, w, ev.Node, l.start, l.at, l.ttl)
					got, want := fmt.Sprint(alone.steps, alone.matched, alone.matchTime, alone.lost, alone.key),
						fmt.Sprint(recs[w].steps, recs[w].matched, recs[w].matchTime, recs[w].lost, recs[w].key)
					if got != want || !slices.Equal(trail(alone), trails[w]) {
						t.Fatalf("%s plane=%v query %d walker %d: alone (steps matched at lost key) %s, in the query %s",
							sch.scheme.Name(), plane != nil, qi, w, got, want)
					}
					walkers++
					if alone.lost {
						lost++
					}
				}
			}
			if walkers == 0 || (plane != nil) != (lost > 0) {
				t.Errorf("%s plane=%v: %d walkers, %d lost", sch.scheme.Name(), plane != nil, walkers, lost)
			}
		}
	}
}
