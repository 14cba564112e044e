package core

import (
	"slices"
	"testing"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// searchROReference is the straight-line specification of SearchRO: scalar
// Bloom probing, map-based BFS, no accumulator, no scratch reuse. The
// optimised path must match it element for element on any quiescent state.
func searchROReference(s *Scheme, p overlay.NodeID, terms []content.Keyword, now sim.Clock) ([]overlay.NodeID, bool) {
	rp := s.repr(p)
	if rp < 0 {
		return nil, false
	}
	keys := make([]uint64, 0, len(terms))
	for _, term := range terms {
		keys = append(keys, uint64(term))
	}
	probes := bloom.AppendKeyProbes(nil, keys)
	staleBefore := sim.Clock(minClock)
	if s.cfg.RefreshPeriodSec > 0 {
		staleBefore = now - sim.Clock(s.cfg.StaleFactor*s.cfg.RefreshPeriodSec)*1000
	}

	var out []overlay.NodeID
	seen := map[overlay.NodeID]bool{}
	attempts := 0
	for _, e := range cacheEntries(s, rp) {
		if attempts >= s.cfg.MaxConfirms {
			break
		}
		src := e.snap.src
		if e.lastSeen < staleBefore || !e.snap.filter.ContainsAllProbes(probes) {
			continue
		}
		attempts++
		seen[src] = true
		if s.sys.G.Alive(src) && s.groupMatches(src, terms) {
			out = append(out, src)
		}
	}
	if len(out) >= s.cfg.MinResults || s.cfg.AdsRequestHops == 0 {
		return out, false
	}

	// Phase 2: BFS in adjacency order, confirm each peer's qualifying
	// offers (published first, then fifo, MaxAdsPerReply per peer).
	interests := s.groupInterests(rp)
	visited := map[overlay.NodeID]bool{rp: true}
	frontier := []overlay.NodeID{rp}
	var targets []overlay.NodeID
	for hop := 1; hop <= s.cfg.AdsRequestHops && len(frontier) > 0; hop++ {
		var next []overlay.NodeID
		for _, u := range frontier {
			for _, nb := range s.eligibleView(u) {
				if visited[nb] {
					continue
				}
				visited[nb] = true
				targets = append(targets, nb)
				next = append(next, nb)
			}
		}
		frontier = next
	}
	attempts = 0
	confirm := func(src overlay.NodeID) {
		if seen[src] {
			return
		}
		seen[src] = true
		attempts++
		if s.sys.G.Alive(src) && s.groupMatches(src, terms) {
			out = append(out, src)
		}
	}
	for _, tg := range targets {
		if attempts >= s.cfg.MaxConfirms {
			break
		}
		offered := 0
		if pub := s.nodes[tg].published; pub != nil && s.cfg.MaxAdsPerReply > 0 &&
			pub.src != rp && pub.topics.Intersects(interests) &&
			pub.filter.ContainsAllProbes(probes) {
			offered++
			confirm(pub.src)
		}
		for _, e := range cacheEntries(s, tg) {
			if offered >= s.cfg.MaxAdsPerReply || attempts >= s.cfg.MaxConfirms {
				break
			}
			src := e.snap.src
			if !e.snap.topics.Intersects(interests) {
				continue
			}
			if e.lastSeen < staleBefore || src == rp {
				continue
			}
			if !e.snap.filter.ContainsAllProbes(probes) {
				continue
			}
			offered++
			confirm(src)
		}
	}
	return out, true
}

// phase1Matches counts the entries of p's representative's cache that pass
// SearchRO's phase-1 filter — fresh at now and matching every term — the
// population its MaxConfirms stop may cut short.
func phase1Matches(s *Scheme, p overlay.NodeID, terms []content.Keyword, now sim.Clock) int {
	rp := s.repr(p)
	if rp < 0 {
		return 0
	}
	var keys []uint64
	for _, term := range terms {
		keys = append(keys, uint64(term))
	}
	probes := bloom.AppendKeyProbes(nil, keys)
	staleBefore := sim.Clock(minClock)
	if s.cfg.RefreshPeriodSec > 0 {
		staleBefore = now - sim.Clock(s.cfg.StaleFactor*s.cfg.RefreshPeriodSec)*1000
	}
	n := 0
	for _, e := range cacheEntries(s, rp) {
		if e.lastSeen >= staleBefore && e.snap.filter.ContainsAllProbes(probes) {
			n++
		}
	}
	return n
}

// TestSearchROMatchesOracle replays the test trace — churn, content drift,
// 5% loss, staleness expiry, evictions — through the real mutating replay
// and, at every batch boundary (a quiescent state), pins SearchRO against
// the scalar reference for the queries of that batch, with one shared
// scratch and result buffer to prove reuse is clean. Some queries must
// match more than MaxConfirms phase-1 entries, so the scan's early stop is
// pinned against the reference's.
func TestSearchROMatchesOracle(t *testing.T) {
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
	sys.SetFaults(faults.New(faults.Config{Seed: 1, LossRate: 0.05}))
	s := New(testConfig(RW))
	st := sim.NewStepper(sys, s, 0)

	sc := NewServeScratch()
	var dst []overlay.NodeID
	checked := 0
	phase2Seen := false
	overBudget := 0
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		for _, ev := range batch {
			// Check BEFORE the mutating Search, so the state under test is
			// exactly the quiescent post-apply state.
			want, wantP2 := searchROReference(s, ev.Node, ev.Terms, ev.Time)
			var res ServeResult
			res, dst = s.SearchRO(ev.Node, ev.Terms, ev.Time, sc, dst[:0])
			if !slices.Equal(res.Sources, want) || res.Phase2 != wantP2 {
				t.Fatalf("query %d (node %d, t=%d): SearchRO = %v (phase2=%v), oracle %v (phase2=%v)",
					checked, ev.Node, ev.Time, res.Sources, res.Phase2, want, wantP2)
			}
			phase2Seen = phase2Seen || res.Phase2
			if phase1Matches(s, ev.Node, ev.Terms, ev.Time) > s.cfg.MaxConfirms {
				overBudget++
			}
			checked++
			st.Record(ev, s.Search(ev))
		}
	}
	st.Finish()
	if checked < 500 {
		t.Fatalf("only %d queries checked", checked)
	}
	if !phase2Seen {
		t.Error("no query exercised the phase-2 neighbourhood path")
	}
	if overBudget == 0 {
		t.Errorf("no query matched more than MaxConfirms=%d phase-1 entries; the scan's early stop went unexercised", s.cfg.MaxConfirms)
	}
	t.Logf("%d of %d queries matched more than MaxConfirms phase-1 entries", overBudget, checked)
}

// TestSearchROAgreesWithSearch pins the serving path to the replay's
// kernel. The two differ on purpose in one thing only: which MaxConfirms
// candidates a phase confirms (Search the nearest by round-trip time,
// SearchRO the first in cache and walk order). With MaxConfirms raised
// past every candidate count no phase is cut, so on a lossless replay —
// every delivery kind plus the hierarchical mode — SearchRO must verify
// exactly as many sources as Search confirms hits, on every query.
func TestSearchROAgreesWithSearch(t *testing.T) {
	flat := func(*testing.T) *sim.System { return sim.NewSystem(testU, testTr, overlay.Random, testNet, 1) }
	type run struct {
		name   string
		cfg    Config
		system func(*testing.T) *sim.System
	}
	var runs []run
	for _, d := range DeliveryKinds {
		runs = append(runs, run{d.String(), testConfig(d), flat})
	}
	runs = append(runs, run{"hier", testConfig(RW), func(t *testing.T) *sim.System { return superSystem(t, 1) }})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg := r.cfg
			cfg.MaxConfirms = 1 << 20
			s := New(cfg)
			st := sim.NewStepper(r.system(t), s, 0)
			sc := NewServeScratch()
			var dst []overlay.NodeID
			queries, phase2 := 0, 0
			for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
				for _, ev := range batch {
					var res ServeResult
					res, dst = s.SearchRO(ev.Node, ev.Terms, ev.Time, sc, dst[:0])
					got := s.Search(ev)
					if len(res.Sources) != got.Hits {
						t.Fatalf("query %d (node %d, t=%d): SearchRO verified %d sources %v, Search confirmed %d hits",
							queries, ev.Node, ev.Time, len(res.Sources), res.Sources, got.Hits)
					}
					if res.Phase2 {
						phase2++
					}
					queries++
					st.Record(ev, got)
				}
			}
			st.Finish()
			if queries < 500 {
				t.Fatalf("only %d queries checked", queries)
			}
			if r.name != "hier" && phase2 == 0 {
				t.Error("no query ran phase 2")
			}
			t.Logf("%d queries agree, %d ran phase 2", queries, phase2)
		})
	}
}

// TestSearchROIsReadOnly pins the no-mutation contract: a SearchRO burst
// between two identical mutating searches must not change the second
// search's outcome, cache population, or the seqlock version.
func TestSearchROIsReadOnly(t *testing.T) {
	s, sys := attach(t, RW)
	var q *trace.Event
	for i := range testTr.Events {
		if testTr.Events[i].Kind == trace.Query {
			q = &testTr.Events[i]
			break
		}
	}
	if q == nil {
		t.Fatal("no query in test trace")
	}
	sizes := func() []int {
		out := make([]int, sys.NumNodes())
		for n := range out {
			out[n] = s.CacheSize(overlay.NodeID(n))
		}
		return out
	}
	before := sizes()
	verBefore := s.applyVer.Load()
	sc := NewServeScratch()
	var dst []overlay.NodeID
	var first ServeResult
	for i := 0; i < 50; i++ {
		var res ServeResult
		res, dst = s.SearchRO(q.Node, q.Terms, q.Time, sc, dst[:0])
		if i == 0 {
			first = ServeResult{Sources: append([]overlay.NodeID(nil), res.Sources...), Phase2: res.Phase2}
		} else if !slices.Equal(res.Sources, first.Sources) || res.Phase2 != first.Phase2 {
			t.Fatalf("iteration %d: answer drifted: %v vs %v", i, res.Sources, first.Sources)
		}
	}
	if got := s.applyVer.Load(); got != verBefore {
		t.Fatalf("seqlock version moved %d → %d across read-only searches", verBefore, got)
	}
	if after := sizes(); !slices.Equal(before, after) {
		t.Fatal("SearchRO changed a cache population")
	}
}
