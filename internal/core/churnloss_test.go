package core

import (
	"math"
	"slices"
	"testing"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// TestIndexedCacheEquivalenceUnderChurnAndLoss replays the shared test
// trace — joins, leaves, content churn and lossy searches all active at
// once — against a deliberately tiny cache, and continually checks the
// bit-sliced signature scan against the scalar linear-scan specification
// (oracle_test.go). The regime exercises exactly the paths that can
// desynchronise the signature index from the caches: FIFO eviction (tiny
// capacity), dead-source eviction after failed confirmations (loss plane),
// staleness expiry, patch snapshot swaps, and the steady growth of the
// global slot matrix as republished ads register new signatures — and the
// paths that can desynchronise the source-major holder index from the
// per-node slabs, which is audited after every event.
func TestIndexedCacheEquivalenceUnderChurnAndLoss(t *testing.T) {
	sys := sim.NewSystem(testU, testTr, overlay.Crawled, testNet, 77)
	sys.SetFaults(faults.New(faults.Config{Seed: 77, LossRate: 0.05}))
	cfg := testConfig(RW)
	cfg.CacheCapacity = 25 // force constant eviction pressure
	s := New(cfg)
	s.Attach(sys)

	// sample holds the nodes audited at every checkpoint; the querying
	// node is additionally audited around each of its searches.
	sample := []overlay.NodeID{1, 17, 99, 250, 399}

	var qa queryAcc
	verify := func(where string, p overlay.NodeID, now sim.Clock, terms []content.Keyword) {
		var keys []uint64
		for _, term := range terms {
			keys = append(keys, uint64(term))
		}
		probes := bloom.AppendKeyProbes(nil, keys)
		qa.reset(&s.slots, probes)

		// Deadlines off, at the warm-up floor, just past it (warm-up stamps
		// expire), and the run's own window.
		interests := s.groupInterests(p)
		window := sim.Clock(cfg.StaleFactor*cfg.RefreshPeriodSec) * 1000
		for _, staleBefore := range []sim.Clock{minClock, warmUpTime, 0, now - window} {
			got := append([]overlay.NodeID(nil), s.scanCache(p, &qa, staleBefore, math.MaxInt, nil)...)
			want := scanCacheReference(s, p, staleBefore, probes)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: node %d at t=%d, staleBefore %d: sliced scan %v != linear scan %v", where, p, now, staleBefore, got, want)
			}
			for _, max := range []int{1, 4, 1 << 30} {
				gotAds := s.serveAds(p, &qa, nil, interests, staleBefore, p, max)
				wantAds := serveAdsReference(s, p, interests, staleBefore, probes, p, max)
				if !slices.Equal(gotAds, wantAds) {
					t.Fatalf("%s: node %d at t=%d, staleBefore %d, max=%d: serveAds %d entries, fifo reference %d", where, p, now, staleBefore, max, len(gotAds), len(wantAds))
				}
			}
		}
	}

	// Replay mirrors sim.Run's serial schedule: per-second ticks, state
	// events applied in order, queries searched in place — with index
	// audits interleaved so every churn step is checked soon after.
	curSec := 0
	advance := func(tm sim.Clock) {
		for int64(curSec+1)*1000 <= tm {
			curSec++
			s.Tick(int64(curSec) * 1000)
		}
	}
	// audit checks, after every event, that the source-major holder index
	// and the per-node slabs, fifos and free lists still describe the same
	// set of cached ads (checkIndex, oracle_test.go).
	audit := func(i int) {
		if err := checkIndex(s); err != nil {
			t.Fatalf("after event %d: %v", i, err)
		}
	}
	queries := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		advance(ev.Time)
		if ev.Kind == trace.Query {
			verify("pre-search", ev.Node, ev.Time, ev.Terms)
			s.Search(ev)
			queries++
			verify("post-search", ev.Node, ev.Time, ev.Terms)
			audit(i)
			continue
		}
		sys.ApplyEvent(ev)
		switch ev.Kind {
		case trace.ContentAdd:
			s.ContentChanged(ev.Time, ev.Node, ev.Doc, true)
		case trace.ContentRemove:
			s.ContentChanged(ev.Time, ev.Node, ev.Doc, false)
		case trace.Join:
			s.NodeJoined(ev.Time, ev.Node)
		case trace.Leave:
			s.NodeLeft(ev.Time, ev.Node)
		}
		audit(i)
		if i%25 == 0 {
			for _, p := range sample {
				verify("churn checkpoint", p, ev.Time, nil)
			}
		}
	}
	if queries == 0 {
		t.Fatal("trace replayed no queries; the property was never exercised")
	}
}
