package search

import (
	"math/rand/v2"

	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// walkRec summarises one walker's traversal: its step records live in the
// scratch's flat times/nodes arrays at [start, start+steps). A lost
// walker had a forwarded copy dropped at its final recorded step — the
// copy was paid for but never arrived, so the walk ends there and the
// final node was never actually visited. key names the walker's messages
// to the fault plane: the query's key folded with the walker's index.
type walkRec struct {
	start     int
	steps     int
	matched   bool
	matchTime sim.Clock
	lost      bool
	key       uint64
}

// runWalker walks walker number w from src for at most ttl steps, stopping
// early at the first node matching the resolved query. Step records are
// appended to the scratch arrays. Under a fault plane each forwarded copy —
// named by (walker, step index) — can be dropped, killing the walker
// silently (nobody retransmits a walker).
func runWalker(sys *sim.System, sc *scratch, w int, src overlay.NodeID, start overlay.NodeID, t sim.Clock, ttl int) walkRec {
	rec := walkRec{start: len(sc.nodes), key: faults.Fold(sc.fkey, uint64(w))}
	cur, prev := start, src
	if start != src {
		// Seeded walkers (GSA) begin at a neighbour that was already
		// visited by the seed flood; record and test it.
		sc.nodes = append(sc.nodes, cur)
		sc.times = append(sc.times, t)
		rec.steps++
		if !sys.Deliver(t, metrics.MQuery, 0, src, cur, rec.key, 0) {
			rec.lost = true // seed copy dropped: the walker never starts
			return rec
		}
		t += sys.JitterMS(metrics.MQuery, src, cur, rec.key, 0)
		sc.times[rec.start] = t
		if sc.matches(sys, cur) {
			rec.matched, rec.matchTime = true, t
			return rec
		}
	}
	for rec.steps < ttl {
		nbs, lat := sys.G.LiveEdges(cur)
		i := pickNeighbor(nbs, prev, sc.rng)
		if i < 0 {
			break // dead end
		}
		t += sim.Clock(lat[i])
		prev, cur = cur, nbs[i]
		step := uint32(rec.steps)
		sc.nodes = append(sc.nodes, cur)
		sc.times = append(sc.times, t)
		rec.steps++
		// The copy is booked now; its bytes once the walker's stop is known.
		if !sys.Deliver(t, metrics.MQuery, 0, prev, cur, rec.key, step) {
			rec.lost = true // walker lost in transit
			break
		}
		t += sys.JitterMS(metrics.MQuery, prev, cur, rec.key, step)
		sc.times[rec.start+rec.steps-1] = t
		if cur != src && sc.matches(sys, cur) {
			rec.matched, rec.matchTime = true, t
			break
		}
	}
	return rec
}

// pickNeighbor returns the index in nbs, a live view, of a uniformly random
// neighbour, avoiding an immediate return to prev when any alternative
// exists; -1 when nbs is empty. Adjacency holds no duplicate edges, so prev
// appears at most once in the live view: one early-exit scan finds it, and
// skipping its index selects the k-th non-prev neighbour in adjacency order.
func pickNeighbor(nbs []overlay.NodeID, prev overlay.NodeID, rng *rand.Rand) int {
	if len(nbs) == 0 {
		return -1
	}
	pi := len(nbs)
	for i, nb := range nbs {
		if nb == prev {
			pi = i
			break
		}
	}
	n := len(nbs)
	if pi < n {
		n--
	}
	if n == 0 {
		return pi // backtracking is the only move
	}
	k := rng.IntN(n)
	if k >= pi {
		k++
	}
	return k
}

// settleWalk computes, for all walkers of one query, the resolution time,
// the effective message counts under the checking termination policy, and
// accounts the traffic. It returns the query's result.
//
// A walker stops at its own match, at a dead end, at TTL exhaustion, at
// the copy the fault plane dropped, or at the first check-back whose
// probe time is at or after the query's resolution time (the probe and
// its reply are accounted as control traffic, which baseline masks
// exclude). A hit reply or either check-back leg can itself be dropped: a
// lost hit reply means the requester never learns of the match, a lost
// check-back leg means the walker gets no stop instruction and keeps
// walking.
func settleWalk(sys *sim.System, sc *scratch, recs []walkRec, src overlay.NodeID,
	t0 sim.Clock, qBytes int, extraMsgs int) metrics.SearchResult {

	resolved := noResponse
	bestHop := 0
	hits := 0
	for _, r := range recs {
		if !r.matched {
			continue
		}
		matchNode := sc.nodes[r.start+r.steps-1]
		reply := r.matchTime + sim.Clock(sys.Latency(matchNode, src))
		if !sys.Deliver(r.matchTime, metrics.MQueryHit, sim.QueryHitBytes(), matchNode, src, r.key, 0) {
			continue // hit reply lost: the requester never hears of it
		}
		hits++
		reply += sys.JitterMS(metrics.MQueryHit, matchNode, src, r.key, 0)
		if reply < resolved {
			resolved = reply
			bestHop = r.steps
		}
	}

	msgs := extraMsgs
	for _, r := range recs {
		stop := r.steps
		// A lost walker's final copy never arrived, so no check-back can
		// originate from that step.
		checkable := r.steps
		if r.lost {
			checkable--
		}
		for s := CheckEvery; s <= checkable; s += CheckEvery {
			probeAt := sc.times[r.start+s-1]
			walker := sc.nodes[r.start+s-1]
			leg := uint32(s-1) << 1 // the check-back after step s-1: probe leg 0, reply leg 1
			if !sys.Deliver(probeAt, metrics.MControl, sim.CheckBackBytes(), walker, src, r.key, leg) {
				continue // probe lost: no reply, no instruction
			}
			if !sys.Deliver(probeAt, metrics.MControl, sim.CheckBackBytes(), src, walker, r.key, leg|1) {
				continue // stop instruction lost: the walker keeps going
			}
			if resolved != noResponse && probeAt >= resolved {
				stop = s
				break
			}
		}
		msgs += stop
		for _, t := range sc.times[r.start : r.start+stop] {
			sys.Load.Send(t, metrics.MQuery, qBytes, 0)
		}
	}

	res := metrics.SearchResult{Bytes: int64(msgs) * int64(qBytes)}
	if resolved != noResponse {
		res.Success = true
		res.ResponseMS = resolved - t0
		res.Hops = bestHop
		res.Hits = hits
	}
	return res
}

// RandomWalk is the 5-walker random-walk baseline with checking
// termination.
type RandomWalk struct {
	noopEvents
	// Walkers and TTL follow the paper: 5 walkers, TTL 1024.
	Walkers int
	TTL     int
	// Seed drives per-query walk randomness.
	Seed uint64

	sys *sim.System
	sc  *scratch
}

// NewRandomWalk returns a random-walk scheme with the paper's parameters.
func NewRandomWalk(seed uint64) *RandomWalk {
	return &RandomWalk{Walkers: NumWalkers, TTL: WalkTTL, Seed: seed}
}

// Name implements sim.Scheme.
func (w *RandomWalk) Name() string { return "random-walk" }

// Attach implements sim.Scheme.
func (w *RandomWalk) Attach(sys *sim.System) {
	w.sys = sys
	w.sc = newScratch(sys.NumNodes())
}

// Search implements sim.Scheme.
func (w *RandomWalk) Search(ev *trace.Event) metrics.SearchResult {
	sc := w.sc
	sc.begin(faults.Key(ev.Time, ev.Node))
	sc.resolve(w.sys, ev.Terms)
	return w.walk(sc, ev)
}

// walk runs the resolved query's walkers and settles them.
func (w *RandomWalk) walk(sc *scratch, ev *trace.Event) metrics.SearchResult {
	sys := w.sys
	sc.pcg.Seed(querySeed(w.Seed, ev.Time, ev.Node), 0x9d8f3c21)
	for k := 0; k < w.Walkers; k++ {
		sc.recs = append(sc.recs, runWalker(sys, sc, k, ev.Node, ev.Node, ev.Time, w.TTL))
	}
	return settleWalk(sys, sc, sc.recs, ev.Node, ev.Time, sim.QueryBytes(len(ev.Terms)), 0)
}
