package core

import (
	"testing"

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
