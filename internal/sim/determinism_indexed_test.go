package sim_test

// External-package determinism coverage for the real ASAP scheme (the
// indexed ads cache), complementing determinism_test.go's echo-scheme
// checks: sequential replays must be bit-for-bit identical.

import (
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

var (
	idxNet = netmodel.Generate(netmodel.SmallConfig())
	idxU   = func() *content.Universe {
		c := content.DefaultConfig()
		c.NumPeers = 500
		c.NumDocs = 12000
		return content.Generate(c)
	}()
	idxTr = func() *trace.Trace {
		cfg := trace.DefaultConfig()
		cfg.NumNodes = 200
		cfg.NumQueries = 600
		cfg.NumJoins = 20
		cfg.NumLeaves = 20
		tr, err := trace.Build(idxU, cfg)
		if err != nil {
			panic(err)
		}
		return tr
	}()
)

// runASAP replays the shared trace against a freshly attached ASAP(FLD)
// scheme.
func runASAP() metrics.Summary {
	cfg := core.DefaultConfig(core.FLD).Scaled(0.05)
	cfg.RefreshPeriodSec = 30
	sys := sim.NewSystem(idxU, idxTr, overlay.Random, idxNet, 7)
	return sim.Run(sys, core.New(cfg), sim.RunOptions{})
}

// TestIndexedReplayDeterministicSingleWorker: two sequential replays of
// the ASAP scheme over identically seeded systems agree on every
// aggregate — the property the experiment matrix rests on, now exercised
// through the topic-indexed cache, the aggregate early-exit and the
// watermark-gated expiry.
func TestIndexedReplayDeterministicSingleWorker(t *testing.T) {
	a, b := runASAP(), runASAP()
	if a.Requests == 0 || a.SuccessRate == 0 {
		t.Fatalf("degenerate replay: %+v", a)
	}
	if a.Requests != b.Requests || a.SuccessRate != b.SuccessRate ||
		a.MeanRespMS != b.MeanRespMS || a.MeanSearchBytes != b.MeanSearchBytes ||
		a.LoadMeanKBps != b.LoadMeanKBps || a.LoadStdKBps != b.LoadStdKBps {
		t.Fatalf("sequential replays differ:\n%+v\n%+v", a, b)
	}
	if !slices.Equal(a.LoadSeries, b.LoadSeries) {
		t.Fatal("load series diverge")
	}
}
