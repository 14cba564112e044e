package search

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// refCopy is one in-flight query copy of the reference cascade.
type refCopy struct {
	t          sim.Clock
	seq        int // send order
	node, from overlay.NodeID
	hop        int
}

// refHeap orders copies by arrival time, then by send order — the rule
// Flooding.Search states — and keeps every copy sent.
type refHeap []refCopy

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].t < h[j].t || h[i].t == h[j].t && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refCopy)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refFlood is the flood cascade written for obviousness: a container/heap
// holding every copy, no pruning, per-message accounting, every message
// put to the plane under its identity — a copy (query, u → v), a hit reply
// (query, holder → requester).
func refFlood(sys *sim.System, ev *trace.Event, ttl int) metrics.SearchResult {
	src, t0 := ev.Node, ev.Time
	key := faults.Key(t0, src)
	visited := make(map[overlay.NodeID]bool)
	h := &refHeap{{t: t0, node: src, from: src}}
	sent := 1

	var res metrics.SearchResult
	best := noResponse
	msgs := 0
	for h.Len() > 0 {
		it := heap.Pop(h).(refCopy)
		if visited[it.node] {
			continue
		}
		visited[it.node] = true
		if it.node != src && sys.NodeMatches(it.node, ev.Terms) {
			if sys.Deliver(it.t, metrics.MQueryHit, sim.QueryHitBytes(), it.node, src, key, 0) {
				res.Hits++
				reply := it.t + sim.Clock(sys.Latency(it.node, src)) +
					sys.JitterMS(metrics.MQueryHit, it.node, src, key, 0)
				if reply < best {
					best, res.Hops = reply, it.hop
				}
			}
		}
		if it.hop >= ttl {
			continue
		}
		for _, nb := range sys.G.LiveNeighbors(it.node) {
			if nb == it.from {
				continue
			}
			msgs++
			if !sys.Deliver(it.t, metrics.MQuery, 0, it.node, nb, key, 0) {
				continue
			}
			heap.Push(h, refCopy{
				t: it.t + sim.Clock(sys.Latency(it.node, nb)) +
					sys.JitterMS(metrics.MQuery, it.node, nb, key, 0),
				seq: sent, node: nb, from: it.node, hop: it.hop + 1,
			})
			sent++
		}
	}
	res.Bytes = int64(msgs) * int64(sim.QueryBytes(len(ev.Terms)))
	sys.Load.Send(t0, metrics.MQuery, int(res.Bytes), 0)
	if best == noResponse {
		return metrics.SearchResult{Bytes: res.Bytes}
	}
	res.Success, res.ResponseMS = true, best-t0
	return res
}

// sameLoad holds the kernel's system to the reference's: the same bytes in
// every second and message class, the same drop count, with drops exactly
// when the plane is lossy, and the same per-second series (message copies
// per class, drops).
func sameLoad(t *testing.T, label string, sysK, sysR *sim.System, lossy bool) {
	t.Helper()
	for sec := 0; sec < sysK.Load.Seconds(); sec++ {
		for c := 0; c < metrics.NumMsgClasses; c++ {
			m := metrics.Mask(metrics.MsgClass(c))
			if got, want := sysK.Load.BytesAt(sec, m), sysR.Load.BytesAt(sec, m); got != want {
				t.Fatalf("%s second %d class %d: kernel %d B, reference %d B", label, sec, c, got, want)
			}
		}
	}
	if dk, dr := sysK.Load.Total(metrics.CDrop), sysR.Load.Total(metrics.CDrop); dk != dr || lossy != (dk > 0) {
		t.Errorf("%s: %d drops kernel, %d reference", label, dk, dr)
	}
	if !reflect.DeepEqual(obs.Series(label, sysK.Load), obs.Series(label, sysR.Load)) {
		t.Errorf("%s: per-second series differ", label)
	}
}

var allKinds = []overlay.Kind{overlay.Random, overlay.PowerLaw, overlay.Crawled}

// floodPlanes are the fault planes a fast path can get wrong: none, loss +
// jitter, jitter alone (not Active, yet it delays every copy) and an
// engaged two-group partition at zero loss (Active, yet only cross-group
// copies drop).
var floodPlanes = []struct {
	name string
	mk   func(n int) *faults.Plane
}{
	{"reliable", func(int) *faults.Plane { return nil }},
	{"loss+jitter", func(int) *faults.Plane {
		return faults.New(faults.Config{Seed: 9, LossRate: 0.05, JitterMS: 20})
	}},
	{"jitter", func(int) *faults.Plane { return faults.New(faults.Config{Seed: 9, JitterMS: 20}) }},
	{"partition", func(n int) *faults.Plane {
		p, group := faults.New(faults.Config{Seed: 9}), make([]int8, n)
		for i := range group {
			group[i] = int8(i % 2)
		}
		p.SetPartition(group)
		return p
	}},
}

// Flooding.Search (bucket queue, send-time pruning, bulk counting) must
// agree with refFlood on every query of the trace — result, every
// per-second load and observability cell and the drop count — on all three
// topologies, under every plane of floodPlanes, at TTL 0, 1 and 6. Then
// ten requesters leave and query again: first isolated (Leave empties a
// node's view), then wired back to their old neighbours with AddEdge, which
// puts live nodes in a departed requester's view but not it in theirs.
func TestFloodingMatchesHeapReference(t *testing.T) {
	for _, kind := range allKinds {
		for _, plane := range floodPlanes {
			sysK, sysR := newSys(t, kind), newSys(t, kind)
			for _, sys := range []*sim.System{sysK, sysR} {
				sys.SetFaults(plane.mk(sys.NumNodes()))
			}
			lossy := sysK.Faults().Active()
			f := &Flooding{}
			f.Attach(sysK)
			same := func(i int, ev *trace.Event, phase string) {
				t.Helper()
				for _, ttl := range []int{0, 1, FloodTTL} {
					f.TTL = ttl
					if got, want := f.Search(ev), refFlood(sysR, ev, ttl); got != want {
						t.Fatalf("%v %s%s ttl=%d event %d: kernel %+v, reference %+v", kind, plane.name, phase, ttl, i, got, want)
					}
				}
			}
			for i := range testTr.Events {
				ev := &testTr.Events[i]
				if ev.Kind != trace.Query {
					sysK.ApplyEvent(ev)
					sysR.ApplyEvent(ev)
					continue
				}
				same(i, ev, "")
			}
			for i, departed := 0, 0; i < len(testTr.Events) && departed < 10; i++ {
				ev := &testTr.Events[i]
				if ev.Kind != trace.Query || !sysK.G.Alive(ev.Node) {
					continue
				}
				departed++
				nbs := slices.Clone(sysK.G.LiveNeighbors(ev.Node))
				sysK.G.Leave(ev.Node)
				sysR.G.Leave(ev.Node)
				same(i, ev, " departed")
				for _, nb := range nbs {
					sysK.G.AddEdge(ev.Node, nb)
					sysR.G.AddEdge(ev.Node, nb)
				}
				same(i, ev, " departed+rewired")
			}
			sameLoad(t, fmt.Sprintf("%v %s", kind, plane.name), sysK, sysR, lossy)
		}
	}
}

// Fault-free, every message is a forwarding node sending to each live
// neighbour but the one it heard from, whichever copy wins a tie. Pruning
// makes each node's pending arrival strictly decrease, so the copy a
// visited node acted on is the last one queued for it.
func TestFloodingMessageConservation(t *testing.T) {
	for _, kind := range allKinds {
		sys := newSys(t, kind)
		f := NewFlooding()
		f.Attach(sys)
		sc := f.sc
		hop := make(map[overlay.NodeID]int32)
		for i := range testTr.Events {
			ev := &testTr.Events[i]
			if ev.Kind != trace.Query {
				sys.ApplyEvent(ev)
				continue
			}
			res := f.Search(ev)
			clear(hop)
			for _, it := range sc.q.items {
				hop[it.node] = it.hop
			}
			want := 0
			for v, h := range hop {
				if !sc.visited(v) {
					t.Fatalf("%v event %d: node %d was queued but never visited", kind, i, v)
				}
				if int(h) < f.TTL {
					want += len(sys.G.LiveNeighbors(v))
					if v != ev.Node {
						want--
					}
				}
			}
			if got := res.Bytes / int64(sim.QueryBytes(len(ev.Terms))); got != int64(want) {
				t.Fatalf("%v event %d: %d messages sent, forwarding degrees sum to %d", kind, i, got, want)
			}
		}
	}
}

// The bucket queue pops in non-decreasing time, FIFO within a millisecond,
// against a model that scans for the minimum (time, push order) — across
// reuse at different t0, growth, an abandoned drain, and pushes into the
// bucket being drained.
func TestBucketQueueProperty(t *testing.T) {
	type pend struct {
		t   sim.Clock
		seq int32
	}
	rng := rand.New(rand.NewPCG(3, 4))
	var q bucketQueue
	for round := 0; round < 200; round++ {
		t0 := sim.Clock(rng.IntN(1 << 20))
		span := 1 + rng.IntN(1<<(2+round%12)) // later rounds outgrow earlier ranges
		q.reset(t0)
		var model []pend
		now, seq := t0, int32(0)
		steps := rng.IntN(400)
		abandon := round%10 == 9 // leave copies queued: reset must clear them
		for step := 0; step < steps || (!abandon && len(model) > 0); step++ {
			if step < steps && (len(model) == 0 || rng.IntN(3) > 0) {
				at := now + sim.Clock(rng.IntN(span))
				if rng.IntN(4) == 0 {
					at = now // same bucket as the copy being processed
				}
				q.push(at, copyItem{hop: seq})
				model = append(model, pend{at, seq})
				seq++
				continue
			}
			m := 0
			for i, p := range model {
				if p.t < model[m].t { // first minimum: earliest pushed wins a tie
					m = i
				}
			}
			it, at, ok := q.pop()
			if !ok || at != model[m].t || it.hop != model[m].seq || at < now {
				t.Fatalf("round %d: popped copy %d at %d (ok=%v), want copy %d at %d (now %d)", round, it.hop, at, ok, model[m].seq, model[m].t, now)
			}
			now = at
			model = append(model[:m], model[m+1:]...)
		}
		if _, _, ok := q.pop(); ok && !abandon {
			t.Fatalf("round %d: drained queue popped another copy", round)
		}
	}

	q.reset(100)
	q.push(105, copyItem{})
	q.pop()
	defer func() {
		if recover() == nil {
			t.Error("push before the bucket being drained did not panic")
		}
	}()
	q.push(104, copyItem{})
}

// probeResolved returns a reference search over sys: the scheme's own
// kernel, run on a scratch whose candidates come from probing every node's
// keyword index — the per-visited-node rule, evaluated up front — instead of
// from the holders index.
func probeResolved(sys *sim.System, kernel func(*scratch, *trace.Event) metrics.SearchResult) func(*trace.Event) metrics.SearchResult {
	sc := newScratch(sys.NumNodes())
	return func(ev *trace.Event) metrics.SearchResult {
		sc.begin(faults.Key(ev.Time, ev.Node))
		sc.terms = ev.Terms
		for n := range sc.cand {
			if sys.NodeMatches(overlay.NodeID(n), ev.Terms) {
				sc.cand[n] = sc.epoch
			}
		}
		return kernel(sc, ev)
	}
}

// Resolving a query against the holders index changes nothing a replay can
// observe: on every query of the trace each baseline returns the result its
// kernel returns over per-node probes, and the two systems end with the same
// load in every second and class and the same fault counters — fault-free
// and under loss + jitter.
func TestResolvedSearchMatchesPerNodeProbe(t *testing.T) {
	type baseline struct {
		scheme sim.Scheme
		kernel func(*scratch, *trace.Event) metrics.SearchResult
	}
	for _, mk := range []func() baseline{
		func() baseline { f := NewFlooding(); return baseline{f, f.cascade} },
		func() baseline { w := NewRandomWalk(3); return baseline{w, w.walk} },
		func() baseline { g := NewGSA(3); return baseline{g, g.walk} },
	} {
		for _, lossy := range []bool{false, true} {
			sysK, sysR := newSys(t, overlay.Crawled), newSys(t, overlay.Crawled)
			if lossy {
				cfg := faults.Config{Seed: 9, LossRate: 0.05, JitterMS: 20}
				sysK.SetFaults(faults.New(cfg))
				sysR.SetFaults(faults.New(cfg))
			}
			k, r := mk(), mk()
			k.scheme.Attach(sysK)
			r.scheme.Attach(sysR)
			ref := probeResolved(sysR, r.kernel)
			name := k.scheme.Name()
			for i := range testTr.Events {
				ev := &testTr.Events[i]
				if ev.Kind != trace.Query {
					sysK.ApplyEvent(ev)
					sysR.ApplyEvent(ev)
					continue
				}
				if got, want := k.scheme.Search(ev), ref(ev); got != want {
					t.Fatalf("%s lossy=%v event %d: resolved %+v, per-node probe %+v", name, lossy, i, got, want)
				}
			}
			sameLoad(t, fmt.Sprintf("%s lossy=%v", name, lossy), sysK, sysR, lossy)
		}
	}
}

// Steady state, each scheme's scratch absorbs every per-query buffer of all
// three baselines — resolution included, whether the rarest term's holders
// sit in the index's base segment or in its overflow list.
func TestBaselineSearchAllocs(t *testing.T) {
	sys := newSys(t, overlay.Crawled)
	f, w, g := NewFlooding(), NewRandomWalk(1), NewGSA(1)
	for _, sch := range []sim.Scheme{f, w, g} {
		sch.Attach(sys)
	}
	queries := append(traceQueries(), overflowQuery(t, sys))
	for _, sch := range []sim.Scheme{f, w, g} {
		run := func() {
			for _, ev := range queries {
				sch.Search(ev)
			}
		}
		run() // grow the scratch to the trace's largest query
		if a := testing.AllocsPerRun(2, run); a != 0 {
			t.Errorf("%s: %.1f allocations per %d searches, want 0", sch.Name(), a, len(queries))
		}
	}
}

// overflowQuery hands a node a document whose first keyword it did not
// hold — base holder segments are full at construction, so the node lands
// in that keyword's overflow list — and returns a query for the keyword.
func overflowQuery(t *testing.T, sys *sim.System) *trace.Event {
	t.Helper()
	for n := overlay.NodeID(0); int(n) < sys.NumNodes(); n++ {
		if !sys.G.Alive(n) || len(sys.Docs(n)) == 0 {
			continue
		}
		terms := testU.Keywords(sys.Docs(n)[0])[:1]
		for m := overlay.NodeID(0); int(m) < sys.NumNodes(); m++ {
			if sys.G.Alive(m) && !sys.NodeMatches(m, terms) {
				sys.ApplyEvent(&trace.Event{Kind: trace.ContentAdd, Node: m, Doc: sys.Docs(n)[0]})
				if _, extra := sys.RarestHolders(terms); len(extra) != 1 || extra[0] != m {
					t.Fatalf("node %d gained keyword %d but its overflow holders are %v", m, terms[0], extra)
				}
				return &trace.Event{Kind: trace.Query, Node: n, Terms: terms}
			}
		}
	}
	t.Fatal("no node to hand a new keyword to")
	return nil
}
