package experiments

import (
	"fmt"
	"math"

	"asap/internal/metrics"
	"asap/internal/overlay"
)

// SeedStats summarises one metric's spread across seeds.
type SeedStats struct {
	Mean, Std, Min, Max float64
}

func newSeedStats(xs []float64) SeedStats {
	if len(xs) == 0 {
		return SeedStats{}
	}
	s := SeedStats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		s.Std += (x - s.Mean) * (x - s.Mean)
	}
	s.Std = math.Sqrt(s.Std / float64(len(xs)))
	return s
}

func (s SeedStats) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f]", s.Mean, s.Std, s.Min, s.Max)
}

// SeedSweep holds per-metric spreads of one scheme × topology over seeds.
type SeedSweep struct {
	Scheme   string
	Topology overlay.Kind
	Seeds    []uint64

	SuccessRate SeedStats
	MeanRespMS  SeedStats
	SearchKB    SeedStats
	LoadKBps    SeedStats
	LoadStd     SeedStats
	Drops       SeedStats // messages the fault plane dropped per run; 0 on a reliable network
}

// RunSeeds replays every given scheme on every given topology under each
// seed and reports the spread of each headline metric per scheme ×
// topology, in RunMatrix's scheme-major order. Each seed gets its own lab
// (universe, trace, placement and topologies) and runs its cells as one
// matrix. This is the robustness check the paper's single-trace
// evaluation lacks. sc's LossRate, if set, applies to every seed.
func RunSeeds(sc Scale, schemes []string, topos []overlay.Kind, seeds []uint64) ([]SeedSweep, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	var first []Cell
	var runs [][]metrics.Summary // per cell, one summary per seed
	for _, seed := range seeds {
		s := sc
		s.Seed = seed
		lab, err := NewLab(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		cells, err := lab.RunMatrix(schemes, topos, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = cells
			runs = make([][]metrics.Summary, len(cells))
		}
		for i, c := range cells {
			runs[i] = append(runs[i], c.Summary)
		}
	}
	sweeps := make([]SeedSweep, len(first))
	for i, c := range first {
		sweeps[i] = newSeedSweep(c.Scheme, c.Topo, seeds, runs[i])
	}
	return sweeps, nil
}

// newSeedSweep folds one cell's per-seed summaries into its spreads.
func newSeedSweep(scheme string, topo overlay.Kind, seeds []uint64, sums []metrics.Summary) SeedSweep {
	stats := func(f func(metrics.Summary) float64) SeedStats {
		xs := make([]float64, len(sums))
		for i, sum := range sums {
			xs[i] = f(sum)
		}
		return newSeedStats(xs)
	}
	return SeedSweep{
		Scheme:      scheme,
		Topology:    topo,
		Seeds:       seeds,
		SuccessRate: stats(func(s metrics.Summary) float64 { return s.SuccessRate }),
		MeanRespMS:  stats(func(s metrics.Summary) float64 { return s.MeanRespMS }),
		SearchKB:    stats(func(s metrics.Summary) float64 { return s.MeanSearchBytes / 1024 }),
		LoadKBps:    stats(func(s metrics.Summary) float64 { return s.LoadMeanKBps }),
		LoadStd:     stats(func(s metrics.Summary) float64 { return s.LoadStdKBps }),
		Drops:       stats(func(s metrics.Summary) float64 { return float64(s.Drops) }),
	}
}

// FormatSeedSweeps renders sweeps as an aligned table: each metric's
// mean±std over the seeds and its [min, max] range, at loss rate loss.
func FormatSeedSweeps(sweeps []SeedSweep, loss float64) string {
	headers := []string{"scheme", "topology", "success", "response ms", "KB/search", "load KB/node/s", "drops"}
	cell := func(s SeedStats, prec int) string {
		return fmt.Sprintf("%.*f±%.*f [%.*f, %.*f]", prec, s.Mean, prec, s.Std, prec, s.Min, prec, s.Max)
	}
	var rows [][]string
	for _, sw := range sweeps {
		rows = append(rows, []string{
			sw.Scheme,
			sw.Topology.String(),
			cell(sw.SuccessRate, 3),
			cell(sw.MeanRespMS, 0),
			cell(sw.SearchKB, 2),
			cell(sw.LoadKBps, 3),
			cell(sw.Drops, 0),
		})
	}
	title := fmt.Sprintf("Seed sweep (%d seeds per cell, %g%% message loss)", lenOrZero(sweeps), loss*100)
	return title + "\n" + RenderTable(headers, rows)
}

func lenOrZero(sweeps []SeedSweep) int {
	if len(sweeps) == 0 {
		return 0
	}
	return len(sweeps[0].Seeds)
}
