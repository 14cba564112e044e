package experiments

import (
	"fmt"
	"math"

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
}

// RunSeeds replays one scheme × topology under each seed, rebuilding the
// entire input chain (universe, trace, placement, topology) every time,
// and reports the spread of each headline metric. This is the robustness
// check the paper's single-trace evaluation lacks.
func RunSeeds(sc Scale, scheme string, topo overlay.Kind, seeds []uint64) (SeedSweep, error) {
	if len(seeds) == 0 {
		return SeedSweep{}, fmt.Errorf("experiments: no seeds")
	}
	sweep := SeedSweep{Scheme: scheme, Topology: topo, Seeds: seeds}
	var succ, resp, kb, load, loadStd []float64
	for _, seed := range seeds {
		s := sc
		s.Seed = seed
		lab, err := NewLab(s)
		if err != nil {
			return SeedSweep{}, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		sum, err := lab.Run(scheme, topo)
		if err != nil {
			return SeedSweep{}, err
		}
		succ = append(succ, sum.SuccessRate)
		resp = append(resp, sum.MeanRespMS)
		kb = append(kb, sum.MeanSearchBytes/1024)
		load = append(load, sum.LoadMeanKBps)
		loadStd = append(loadStd, sum.LoadStdKBps)
	}
	sweep.SuccessRate = newSeedStats(succ)
	sweep.MeanRespMS = newSeedStats(resp)
	sweep.SearchKB = newSeedStats(kb)
	sweep.LoadKBps = newSeedStats(load)
	sweep.LoadStd = newSeedStats(loadStd)
	return sweep, nil
}

// FormatSeedSweeps renders sweeps as an aligned table.
func FormatSeedSweeps(sweeps []SeedSweep) string {
	headers := []string{"scheme", "topology", "success", "response ms", "KB/search", "load KB/node/s"}
	var rows [][]string
	for _, sw := range sweeps {
		rows = append(rows, []string{
			sw.Scheme,
			sw.Topology.String(),
			fmt.Sprintf("%.3f±%.3f", sw.SuccessRate.Mean, sw.SuccessRate.Std),
			fmt.Sprintf("%.0f±%.0f", sw.MeanRespMS.Mean, sw.MeanRespMS.Std),
			fmt.Sprintf("%.2f±%.2f", sw.SearchKB.Mean, sw.SearchKB.Std),
			fmt.Sprintf("%.3f±%.3f", sw.LoadKBps.Mean, sw.LoadKBps.Std),
		})
	}
	title := fmt.Sprintf("Seed sweep (%d seeds per cell)", lenOrZero(sweeps))
	return title + "\n" + RenderTable(headers, rows)
}

func lenOrZero(sweeps []SeedSweep) int {
	if len(sweeps) == 0 {
		return 0
	}
	return len(sweeps[0].Seeds)
}
