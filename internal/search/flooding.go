package search

import (
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/sim"
	"asap/internal/trace"
)

// Flooding is the TTL-bounded flood baseline: the requester sends the
// query to all neighbours; each node forwards the first copy it receives
// to all neighbours but the sender while TTL remains; every matching node
// replies directly to the requester.
type Flooding struct {
	noopEvents
	// TTL is the flood radius (paper: 6).
	TTL int

	sys *sim.System
	sc  *scratch
}

// NewFlooding returns a flooding scheme with the paper's TTL.
func NewFlooding() *Flooding { return &Flooding{TTL: FloodTTL} }

// Name implements sim.Scheme.
func (f *Flooding) Name() string { return "flooding" }

// Attach implements sim.Scheme.
func (f *Flooding) Attach(sys *sim.System) {
	f.sys = sys
	f.sc = newScratch(sys.NumNodes())
}

// Search implements sim.Scheme: it resolves the query's candidates once and
// runs the flood cascade over the scheme's scratch.
func (f *Flooding) Search(ev *trace.Event) metrics.SearchResult {
	sc := f.sc
	sc.begin(faults.Key(ev.Time, ev.Node))
	sc.resolve(f.sys, ev.Terms)
	return f.cascade(sc, ev)
}

// cascade simulates one flood cascade. Every copy sent is one query message
// (duplicates included), booked in one add per forwarding node, but only a
// copy that can still be the first to reach its receiver is queued (see
// scratch.claim). A node acts on the copy that arrives earliest and, among
// those of one millisecond, was sent earliest; it replies when it is a
// resolved candidate that matches (see scratch.matches). A copy is named
// (query, edge), a hit reply (query, holder → requester). An installed
// plane is asked for every copy sent: a dropped copy costs its sender the
// message but never arrives (the branch is pruned unless another copy
// reaches the node), and a dropped hit reply costs the responder the bytes
// without the requester learning of the hit.
func (f *Flooding) cascade(sc *scratch, ev *trace.Event) metrics.SearchResult {
	sys := f.sys
	src := ev.Node
	qBytes := sim.QueryBytes(len(ev.Terms))
	t0 := ev.Time
	faulty := sys.Faults() != nil
	srcLive := sys.G.Alive(src) // a departed requester is in no live view

	best := noResponse
	bestHop := int32(0)
	msgs := 0
	hits := 0

	q := &sc.q
	q.reset(t0)
	q.push(t0, copyItem{node: src, from: src})
	for {
		it, t, ok := q.pop()
		if !ok {
			break
		}
		if sc.visited(it.node) {
			continue // superseded by an earlier copy; counted at send time
		}
		sc.visit(it.node)

		if it.node != src && sc.matches(sys, it.node) {
			reply := t + sim.Clock(sys.Latency(it.node, src))
			if sys.Deliver(t, metrics.MQueryHit, sim.QueryHitBytes(), it.node, src, sc.fkey, 0) {
				hits++
				reply += sys.JitterMS(metrics.MQueryHit, it.node, src, sc.fkey, 0)
				if reply < best {
					best = reply
					bestHop = it.hop
				}
			}
		}
		if int(it.hop) >= f.TTL {
			continue
		}
		// A copy to each live neighbour but the sender, whom claim refuses;
		// the sender is in the view unless it is a departed requester.
		view, lat := sys.G.LiveEdges(it.node)
		sent := len(view)
		if it.node != src && (it.from != src || srcLive) {
			sent--
		}
		msgs += sent
		sys.Load.Send(t, metrics.MQuery, 0, sent) // bytes booked at t0 below
		for i, nb := range view {
			at := t + sim.Clock(lat[i])
			if faulty {
				if nb == it.from || sys.Lost(t, metrics.MQuery, it.node, nb, sc.fkey, 0) {
					continue // not sent, or lost: nb may still get a copy via another edge
				}
				at += sys.JitterMS(metrics.MQuery, it.node, nb, sc.fkey, 0)
			}
			if sc.claim(nb, at-t0) {
				q.push(at, copyItem{node: nb, from: it.node, hop: it.hop + 1})
			}
		}
	}
	queryBytes := int64(msgs) * int64(qBytes)
	// Query bytes are spread across the cascade; bucketing them all at t0
	// is accurate to within the flood's ~1s lifetime.
	sys.Load.Send(t0, metrics.MQuery, int(queryBytes), 0)

	res := metrics.SearchResult{Bytes: queryBytes}
	if best != noResponse {
		res.Success = true
		res.ResponseMS = best - t0
		res.Hops = int(bestHop)
		res.Hits = hits
	}
	return res
}
