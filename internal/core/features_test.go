package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

func TestMinResultsValidation(t *testing.T) {
	c := DefaultConfig(RW)
	c.MinResults = 0
	if c.Validate() == nil {
		t.Error("MinResults 0 accepted")
	}
	c.MinResults = c.MaxConfirms + 1
	if c.Validate() == nil {
		t.Error("MinResults above MaxConfirms accepted")
	}
}

// TestMinResultsTriggersPhase2 compares a single-result and a multi-result
// configuration on the same queries: demanding more results must generate
// at least as much ads-request traffic and never fewer hits.
func TestMinResultsTriggersPhase2(t *testing.T) {
	run := func(minResults int) (sum metrics.Summary, adsReqBytes int64) {
		cfg := testConfig(RW)
		cfg.MinResults = minResults
		cfg.MaxConfirms = 5
		sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 21)
		s := New(cfg)
		s.Attach(sys)
		n := 0
		for i := range testTr.Events {
			ev := &testTr.Events[i]
			if ev.Kind != trace.Query {
				continue
			}
			sys.Load.Search(ev.Time, s.Search(ev))
			if n++; n >= 300 {
				break
			}
		}
		return metrics.Summarize(s.Name(), "random", sys.Load, s.LoadMask()), sys.Load.TotalBytes(metrics.Mask(metrics.MAdsRequest))
	}

	one, oneReq := run(1)
	many, manyReq := run(3)
	if many.MeanHits < one.MeanHits {
		t.Errorf("MinResults=3 mean hits %.2f below MinResults=1's %.2f", many.MeanHits, one.MeanHits)
	}
	if manyReq <= oneReq {
		t.Errorf("MinResults=3 ads-request traffic %d not above MinResults=1's %d", manyReq, oneReq)
	}
	if many.SuccessRate < one.SuccessRate {
		t.Errorf("asking for more results lowered success: %.2f vs %.2f", many.SuccessRate, one.SuccessRate)
	}
	// First-answer latency must not regress: phase 2 runs after a hit but
	// the hit's response time stands.
	if one.SuccessRate > 0 && many.MeanRespMS > one.MeanRespMS*1.25 {
		t.Errorf("multi-result raised mean response %.0f → %.0f ms", one.MeanRespMS, many.MeanRespMS)
	}
}

// TestBiasedDeliveryImprovesPlacement: at identical budget, biased walks
// must land ads on at least as many interested caches as uniform walks.
func TestBiasedDeliveryImprovesPlacement(t *testing.T) {
	cached := func(biased bool) int {
		cfg := testConfig(RW)
		cfg.BiasedDelivery = biased
		sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 22)
		s := New(cfg)
		s.Attach(sys)
		total := 0
		for n := 0; n < testTr.InitialLive; n++ {
			total += s.CacheSize(overlay.NodeID(n))
		}
		return total
	}
	uniform := cached(false)
	biased := cached(true)
	if biased <= uniform {
		t.Errorf("biased delivery placed %d cached ads, uniform placed %d", biased, uniform)
	}
	t.Logf("cached ads after warm-up: uniform=%d biased=%d (+%.0f%%)",
		uniform, biased, 100*float64(biased-uniform)/float64(uniform))
}

// TestBiasedDeliveryEndToEnd: the placement advantage should show up as
// equal-or-better success at equal budget.
func TestBiasedDeliveryEndToEnd(t *testing.T) {
	run := func(biased bool) float64 {
		cfg := testConfig(RW)
		cfg.BiasedDelivery = biased
		sys := sim.NewSystem(testU, testTr, overlay.Crawled, testNet, 23)
		sch := New(cfg)
		sum := sim.Run(sys, sch, sim.RunOptions{})
		return sum.SuccessRate
	}
	uniform := run(false)
	biased := run(true)
	if biased+0.03 < uniform {
		t.Errorf("biased delivery success %.3f well below uniform %.3f", biased, uniform)
	}
	t.Logf("success: uniform=%.3f biased=%.3f", uniform, biased)
}

// TestPhase1ResponseCountsBothJitters: on a jitter-only plane (which never
// drops, so every contact is tried once), a phase-1 hit answers when the
// first positive confirmation reply arrives — for each of the MaxConfirms
// nearest candidates that holds a match, its round-trip time plus its
// request's jitter plus its reply's — and the earliest of those is the
// search's ResponseMS.
func TestPhase1ResponseCountsBothJitters(t *testing.T) {
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 23)
	sys.SetFaults(faults.New(faults.Config{Seed: 23, JitterMS: 60}))
	s := New(testConfig(RW))
	s.Attach(sys)
	var checked, moved int
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query || !sys.G.Alive(ev.Node) {
			continue
		}
		p, key := ev.Node, faults.Key(ev.Time, ev.Node)
		sc := newSearchScratch()
		sc.begin(&s.slots, ev.Terms)
		var cands []candidate
		for _, src := range s.scanCache(p, &sc.qa, s.staleBefore(ev.Time), math.MaxInt, nil) {
			cands = append(cands, candidate{src: src, rtt: 2 * sim.Clock(sys.Latency(p, src))})
		}
		slices.SortFunc(cands, func(a, b candidate) int { return cmp.Or(cmp.Compare(a.rtt, b.rtt), cmp.Compare(a.src, b.src)) })
		want, plain := sim.Clock(-1), sim.Clock(-1)
		for _, c := range cands[:min(len(cands), s.cfg.MaxConfirms)] {
			if !sys.G.Alive(c.src) || !s.groupMatches(c.src, ev.Terms) {
				continue
			}
			at := c.rtt + sys.JitterMS(metrics.MConfirm, p, c.src, key, legSeq(0, legConfirm)) +
				sys.JitterMS(metrics.MConfirm, c.src, p, key, legSeq(0, legConfirmReply))
			if want < 0 || at < want {
				want = at
			}
			if plain < 0 || c.rtt < plain {
				plain = c.rtt
			}
		}
		res := s.Search(ev)
		if want < 0 {
			continue
		}
		if !res.Success || res.Hops != 1 || res.ResponseMS != want {
			t.Fatalf("query %d: %+v, want a phase-1 hit answered in %d ms", i, res, want)
		}
		checked++
		if want != plain {
			moved++
		}
		if checked == 200 {
			break
		}
	}
	if checked == 0 || moved == 0 {
		t.Errorf("%d phase-1 hits checked, %d moved by jitter: too little exercised", checked, moved)
	}
}

// TestAdsRequestRetryWaitsForRoundTrip: an ads-request round that heard no
// reply is retried only once every addressed neighbour's reply could have
// arrived — the slowest neighbour's round trip, then RetryTimeoutMS more —
// so every ad a retry brings in arrives no earlier than that.
func TestAdsRequestRetryWaitsForRoundTrip(t *testing.T) {
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 29)
	s := New(testConfig(RW))
	s.Attach(sys)
	sys.SetFaults(faults.New(faults.Config{Seed: 29, LossRate: 0.6}))
	retried := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query || !sys.G.Alive(ev.Node) {
			continue
		}
		slowest := sim.Clock(0)
		for _, nb := range s.eligibleView(ev.Node) {
			slowest = max(slowest, sim.Clock(sys.Latency(ev.Node, nb)))
		}
		retries := sys.Load.Total(metrics.CRetry)
		sc := &s.scratch
		sc.fkey = faults.Key(ev.Time, ev.Node)
		sc.begin(&s.slots, ev.Terms)
		cands, _ := s.adsRequest(ev.Time, ev.Node, sc, &sc.qa)
		if sys.Load.Total(metrics.CRetry) == retries || len(cands) == 0 {
			continue // answered at once, or the retry brought nothing
		}
		retried++
		earliest := ev.Time + 2*slowest + sim.Clock(s.cfg.RetryTimeoutMS)
		for _, c := range cands {
			if c.avail < earliest {
				t.Fatalf("query %d: a retried request's ad from %d arrived at %d, before %d (round trip %d + timeout)",
					i, c.src, c.avail, earliest, 2*slowest)
			}
		}
		if retried == 50 {
			break
		}
	}
	if retried == 0 {
		t.Error("no ads request was retried and answered: too little exercised")
	}
}
