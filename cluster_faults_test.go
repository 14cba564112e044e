package asap

import (
	"slices"
	"testing"

	"asap/internal/core"
	"asap/internal/metrics"
)

// TestClusterChurnRefreshesLiveDenominator: Join and Leave change the
// per-node load denominator mid-second; the cluster must refresh the
// current second's live count immediately, not leave it at whatever
// Advance recorded when the second began. Before the fix, a node leaving
// (or joining) between Advance calls was invisible to KB/node/s.
func TestClusterChurnRefreshesLiveDenominator(t *testing.T) {
	c := newTestCluster(t, "asap-rw")
	c.Advance(1)
	before := c.LiveCount()
	if got := c.sys.Load.Live(1); got != before {
		t.Fatalf("Advance recorded live=%d at sec 1, want %d", got, before)
	}

	left := 0
	for n := NodeID(0); int(n) < c.NumNodes() && left < 5; n++ {
		if c.Alive(n) {
			if err := c.Leave(n); err != nil {
				t.Fatalf("Leave(%d): %v", n, err)
			}
			left++
		}
	}
	if got := c.sys.Load.Live(1); got != before-left {
		t.Errorf("after %d departures Live(1) = %d, want %d", left, got, before-left)
	}

	// A reserve node joining mid-second must show up the same way.
	joined := false
	for n := NodeID(0); int(n) < c.NumNodes(); n++ {
		if !c.Alive(n) {
			if err := c.Join(n); err != nil {
				t.Fatalf("Join(%d): %v", n, err)
			}
			joined = true
			break
		}
	}
	if !joined {
		t.Fatal("no reserve node available to join")
	}
	if got := c.sys.Load.Live(1); got != before-left+1 {
		t.Errorf("after join Live(1) = %d, want %d", got, before-left+1)
	}
}

// TestClusterAdvancePastHorizonFoldsLive: driving the clock to (or past)
// the accounting horizon must fold the live count into the final bucket
// the same way Add folds bytes there — before the fix the SetLive at the
// horizon second was silently dropped, so the last bucket divided
// horizon-boundary bytes by a stale population.
func TestClusterAdvancePastHorizonFoldsLive(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 50, Reserve: 2, HorizonSec: 3, Seed: 7})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Advance(2) // curSec = 2, the final bucket
	want := c.LiveCount()
	c.Advance(1) // curSec = 3 = HorizonSec: SetLive must fold into sec 2
	if got := c.sys.Load.Live(2); got != want {
		t.Errorf("Live(2) = %d after horizon tick, want %d", got, want)
	}
}

// findUniqueHolderQuery picks a (requester, document, holder) triple where
// the document's only live holder advertised to the requester's cache and
// a search resolves in one hop — the setup both dead-source tests need.
// Search matches keywords, not document ids, so the holder must also be
// the only live node sharing any document that carries all of the
// document's keywords: otherwise another node answers the search after the
// holder leaves.
func findUniqueHolderQuery(t *testing.T, c *Cluster, sch *core.Scheme) (req NodeID, doc DocID, holder NodeID) {
	t.Helper()
	holdersOf := make(map[DocID][]NodeID)
	for n := 0; n < c.NumNodes(); n++ {
		if !c.Alive(NodeID(n)) {
			continue
		}
		for _, d := range c.Docs(NodeID(n)) {
			holdersOf[d] = append(holdersOf[d], NodeID(n))
		}
	}
	// Probe documents in ID order so the chosen triple is stable run to run.
	for d := DocID(0); int(d) < c.NumDocs(); d++ {
		hs := holdersOf[d]
		if len(hs) != 1 {
			continue
		}
		h := hs[0]
		if othersMatch(c, h, c.Keywords(d)) {
			continue
		}
		for n := 0; n < c.NumNodes(); n++ {
			r := NodeID(n)
			if r == h || !c.Alive(r) || !c.Interests(r).Has(c.ClassOf(d)) {
				continue
			}
			if !sch.HasCachedAd(r, h) {
				continue // warm-up delivery did not reach r with h's ad
			}
			if res := c.SearchForDoc(r, d, 0); res.Success && res.Hops == 1 {
				return r, d, h
			}
		}
	}
	t.Fatal("no uniquely-held document resolvable in one hop; enlarge the cluster")
	return 0, 0, 0
}

// othersMatch reports whether a live node other than h shares a document
// that carries every one of terms.
func othersMatch(c *Cluster, h NodeID, terms []Keyword) bool {
	for n := NodeID(0); int(n) < c.NumNodes(); n++ {
		if n == h || !c.Alive(n) {
			continue
		}
		for _, e := range c.Docs(n) {
			if containsAll(c.Keywords(e), terms) {
				return true
			}
		}
	}
	return false
}

// containsAll reports whether every term is one of kws.
func containsAll(kws, terms []Keyword) bool {
	for _, t := range terms {
		if !slices.Contains(kws, t) {
			return false
		}
	}
	return true
}

// TestConfirmRoundEvictsDeadSource: a search that confirms against a
// departed source must evict that source's cached ad — on-demand liveness
// detection. The config disables the phase-2 ads request so the eviction
// stays observable after the search (with phase 2 on, neighbours holding
// the same stale ad re-supply it within the same search; see
// TestDeadSourceFallsThroughToPhase2 for that path).
func TestConfirmRoundEvictsDeadSource(t *testing.T) {
	custom := ASAPConfig{
		FloodTTL: 6, Walkers: 5, BudgetUnit: 120, UpdateBudgetDiv: 12,
		AdsRequestHops: 0, MaxConfirms: 5, MinResults: 1, CacheCapacity: 100,
		RefreshPeriodSec: 30, StaleFactor: 12, MaxAdsPerReply: 64, Seed: 7,
	}
	c, err := NewCluster(ClusterConfig{Nodes: 200, Reserve: 10, Scheme: "asap-fld", Seed: 7, ASAP: &custom})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	sch := c.sch.(*core.Scheme)
	req, doc, holder := findUniqueHolderQuery(t, c, sch)

	if err := c.Leave(holder); err != nil {
		t.Fatalf("Leave(%d): %v", holder, err)
	}
	if !sch.HasCachedAd(req, holder) {
		t.Fatal("ungraceful departure should leave the stale ad cached")
	}
	timeoutsBefore := c.sys.Load.Total(metrics.CTimeout)

	res := c.SearchForDoc(req, doc, 0)
	if res.Success {
		t.Errorf("search for a uniquely-held document succeeded after its only holder left: %+v", res)
	}
	if sch.HasCachedAd(req, holder) {
		t.Error("failed confirmation did not evict the departed source's ad")
	}
	if timeouts := c.sys.Load.Total(metrics.CTimeout); timeouts <= timeoutsBefore {
		t.Error("dead-source confirmation did not count a timeout")
	}
}

// TestDeadSourceFallsThroughToPhase2: under the default configuration the
// same failed confirmation makes the search continue into the phase-2 ads
// request (Table I's "if more responses needed") instead of stopping at
// the dead phase-1 candidate.
func TestDeadSourceFallsThroughToPhase2(t *testing.T) {
	c := newTestCluster(t, "asap-fld")
	sch := c.sch.(*core.Scheme)
	req, doc, holder := findUniqueHolderQuery(t, c, sch)

	if err := c.Leave(holder); err != nil {
		t.Fatalf("Leave(%d): %v", holder, err)
	}
	adsReqBefore := c.sys.Load.ByClass()[metrics.MAdsRequest]
	res := c.SearchForDoc(req, doc, 0)
	if res.Success {
		t.Errorf("search for a uniquely-held document succeeded after its only holder left: %+v", res)
	}
	// Phase 2 ran: the failed search flooded an ads request after its
	// confirmation went unanswered.
	if got := c.sys.Load.ByClass()[metrics.MAdsRequest]; got <= adsReqBefore {
		t.Errorf("no ads-request traffic after the dead-source confirmation (still %d bytes); search did not fall through to phase 2", got)
	}
}
