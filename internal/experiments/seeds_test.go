package experiments

import (
	"math"
	"strings"
	"testing"

	"asap/internal/overlay"
)

func TestNewSeedStats(t *testing.T) {
	s := newSeedStats([]float64{1, 2, 3})
	if math.Abs(s.Mean-2) > 1e-12 || math.Abs(s.Min-1) > 1e-12 || math.Abs(s.Max-3) > 1e-12 {
		t.Errorf("stats = %+v", s)
	}
	wantStd := math.Sqrt(2.0 / 3)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, wantStd)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	zero := newSeedStats(nil)
	if zero.Mean != 0 || zero.Std != 0 {
		t.Error("empty stats not zero")
	}
}

func TestRunSeedsSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed tiny runs in -short mode")
	}
	sc := ScaleTiny()
	sweep, err := RunSeeds(sc, "asap-rw", overlay.Crawled, []uint64{1, 2, 3})
	if err != nil {
		t.Fatalf("RunSeeds: %v", err)
	}
	if len(sweep.Seeds) != 3 {
		t.Errorf("seeds recorded %d", len(sweep.Seeds))
	}
	// Success should be consistently decent with modest spread.
	if sweep.SuccessRate.Mean < 0.5 {
		t.Errorf("mean success %.2f", sweep.SuccessRate.Mean)
	}
	if sweep.SuccessRate.Std > 0.15 {
		t.Errorf("success spread %.3f across seeds suspiciously large", sweep.SuccessRate.Std)
	}
	if sweep.SuccessRate.Min > sweep.SuccessRate.Max {
		t.Error("min > max")
	}
	// Different seeds must actually differ somewhere (not a frozen RNG).
	if sweep.MeanRespMS.Std == 0 && sweep.LoadKBps.Std == 0 && sweep.SuccessRate.Std == 0 {
		t.Error("zero spread across seeds: seeding is inert")
	}

	out := FormatSeedSweeps([]SeedSweep{sweep}, 0)
	if !strings.Contains(out, "asap-rw") || !strings.Contains(out, "±") {
		t.Errorf("sweep table wrong:\n%s", out)
	}
}

func TestRunSeedsErrors(t *testing.T) {
	if _, err := RunSeeds(ScaleTiny(), "asap-rw", overlay.Crawled, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	if _, err := RunSeeds(ScaleTiny(), "bogus", overlay.Crawled, []uint64{1}); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestFormatSeedSweepsEmpty(t *testing.T) {
	out := FormatSeedSweeps(nil, 0)
	if !strings.Contains(out, "0 seeds") {
		t.Errorf("empty sweep table: %s", out)
	}
}
