package experiments

import (
	"math"
	"reflect"
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
	sweeps, err := RunSeeds(sc, []string{"asap-rw"}, []overlay.Kind{overlay.Crawled}, []uint64{1, 2, 3})
	if err != nil {
		t.Fatalf("RunSeeds: %v", err)
	}
	if len(sweeps) != 1 {
		t.Fatalf("got %d sweeps, want 1", len(sweeps))
	}
	sweep := sweeps[0]
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
	crawled := []overlay.Kind{overlay.Crawled}
	if _, err := RunSeeds(ScaleTiny(), []string{"asap-rw"}, crawled, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	if _, err := RunSeeds(ScaleTiny(), []string{"bogus"}, crawled, []uint64{1}); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// TestFormatSeedSweepsPrecision: success prints in percent to 2 places
// and response to 0.1 ms, so moves of a hundredth of a point or a tenth of
// a millisecond show in the table.
func TestFormatSeedSweepsPrecision(t *testing.T) {
	out := FormatSeedSweeps([]SeedSweep{{
		Scheme:      "asap-rw",
		Topology:    overlay.Crawled,
		Seeds:       []uint64{1, 2},
		SuccessRate: SeedStats{Mean: 0.73144, Std: 0.00416, Min: 0.7234, Max: 0.7362},
		MeanRespMS:  SeedStats{Mean: 152.34, Std: 3.06, Min: 148.04, Max: 156.66},
		SearchKB:    SeedStats{Mean: 3.219, Std: 0.421, Min: 2.742, Max: 3.838},
		LoadKBps:    SeedStats{Mean: 0.2314, Std: 0.0091, Min: 0.2221, Max: 0.2433},
	}}, 0)
	for _, want := range []string{
		"success %",
		"73.14±0.42 [72.34, 73.62]",
		"152.3±3.1 [148.0, 156.7]",
		"3.22±0.42 [2.74, 3.84]",
		"0.231±0.009 [0.222, 0.243]",
		"0±0 [0, 0]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}

func TestFormatSeedSweepsEmpty(t *testing.T) {
	out := FormatSeedSweeps(nil, 0)
	if !strings.Contains(out, "0 seeds") {
		t.Errorf("empty sweep table: %s", out)
	}
}

// TestRunSeedsMatchesStandaloneLabs: a seed sweep's cell is exactly what a
// standalone lab per scheme, topology and seed gives — NewLab(seed) and
// Run, then each metric's spread over the seeds — reliable and at 5 %
// loss, though the sweep builds one lab per seed and runs its cells as one
// matrix.
func TestRunSeedsMatchesStandaloneLabs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed tiny runs in -short mode")
	}
	schemes, topo, seeds := []string{"flooding", "asap-rw"}, overlay.Crawled, []uint64{1, 2}
	for _, loss := range []float64{0, 0.05} {
		sc := ScaleTiny()
		sc.LossRate = loss
		sweeps, err := RunSeeds(sc, schemes, []overlay.Kind{topo}, seeds)
		if err != nil {
			t.Fatalf("loss %v: %v", loss, err)
		}
		if len(sweeps) != len(schemes) {
			t.Fatalf("loss %v: %d sweeps, want %d", loss, len(sweeps), len(schemes))
		}
		for i, scheme := range schemes {
			var succ, resp, kb, load, loadStd, drops []float64
			for _, seed := range seeds {
				s := sc
				s.Seed = seed
				lab, err := NewLab(s)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := lab.Run(scheme, topo)
				if err != nil {
					t.Fatal(err)
				}
				succ = append(succ, sum.SuccessRate)
				resp = append(resp, sum.MeanRespMS)
				kb = append(kb, sum.MeanSearchBytes/1024)
				load = append(load, sum.LoadMeanKBps)
				loadStd = append(loadStd, sum.LoadStdKBps)
				drops = append(drops, float64(sum.Drops))
			}
			want := SeedSweep{
				Scheme: scheme, Topology: topo, Seeds: seeds,
				SuccessRate: newSeedStats(succ), MeanRespMS: newSeedStats(resp), SearchKB: newSeedStats(kb),
				LoadKBps: newSeedStats(load), LoadStd: newSeedStats(loadStd), Drops: newSeedStats(drops),
			}
			if !reflect.DeepEqual(sweeps[i], want) {
				t.Errorf("loss %v, %s: sweep cell\n%+v\nwant the standalone labs'\n%+v", loss, scheme, sweeps[i], want)
			}
		}
	}
}
