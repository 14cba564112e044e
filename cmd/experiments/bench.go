package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"asap/internal/experiments"
	"asap/internal/obs"
)

// benchSide records one timed full-matrix replay.
type benchSide struct {
	Workers      int     `json:"workers"`
	FreshGraphs  bool    `json:"fresh_graphs"`
	WallMS       float64 `json:"wall_ms"`
	RunsPerSec   float64 `json:"runs_per_sec"`
	AllocMB      float64 `json:"alloc_mb"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	// PeakHeapMB is the live-heap high-water mark observed across the
	// side's runs (sampled once per simulated second; 0 when not sampled).
	PeakHeapMB float64 `json:"peak_heap_mb,omitempty"`
}

// benchRecord is the machine-readable perf record -benchjson emits: the
// sequential fresh-graph baseline (the pre-optimization RunMatrix) versus
// the parallel cloned-graph path, over the same lab. Both sides are timed
// on the same process, so gomaxprocs/num_cpu record how much parallelism
// the parallel side could actually use: on a single-CPU machine the two
// sides run the same schedule and speedup_x is null — wall_ms and the
// allocation counters remain comparable, the ratio does not measure the
// parallel path.
type benchRecord struct {
	Scale      string    `json:"scale"`
	Seed       uint64    `json:"seed"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Runs       int       `json:"runs"`
	LabBuildMS float64   `json:"lab_build_ms"`
	Baseline   benchSide `json:"baseline_sequential_fresh"`
	Optimized  benchSide `json:"optimized_parallel_cloned"`
	// Phases is the optimized side's wall-clock phase breakdown, summed
	// across all matrix cells and workers (topology clone, attach/warm-up,
	// replay, search phases, delivery). Wall-clock figures: comparable
	// within one record, not across machines.
	Phases []obs.PhaseStat `json:"optimized_phase_timing"`
	// DeliveryDelta compares the delivery-plane phases (attach,
	// deliver_flood, deliver_walk) against the previous record found at the
	// output path before this run overwrote it — the before/after evidence
	// for hot-loop optimisations, on the same host. Empty when no previous
	// record existed.
	DeliveryDelta []phaseDelta `json:"delivery_phase_delta,omitempty"`
	// ReplayDelta compares the replay phase — the event loop proper, the
	// target of the flattened replay data plane (DESIGN.md §12) — against
	// the previous record, alongside the per-run allocation counters and
	// whether the new matrix still matched its own sequential baseline.
	// Nil when no previous record existed at the output path.
	ReplayDelta  *replayDelta `json:"replay_phase_delta,omitempty"`
	SpeedupX     *float64     `json:"speedup_x"`
	SpeedupNote  string       `json:"speedup_note,omitempty"`
	OutputsEqual bool         `json:"outputs_equal"`
	// ScaleRuns carries the -scalerun records (wall time and peak heap)
	// forward across -benchjson regenerations, which otherwise rewrite the
	// whole file.
	ScaleRuns json.RawMessage `json:"scale_runs,omitempty"`
	When      string          `json:"when"`
}

// phaseDelta is one phase's before/after wall-clock comparison.
type phaseDelta struct {
	Phase        string  `json:"phase"`
	BeforeMS     float64 `json:"before_total_ms"`
	AfterMS      float64 `json:"after_total_ms"`
	DeltaPercent float64 `json:"delta_percent"`
}

// replayDelta is the replay phase's before/after comparison, with the
// allocation-per-run counters that show whether a wall-clock win came
// with (or from) an allocation win, and the equality verdict guarding it.
type replayDelta struct {
	BeforeMS        float64 `json:"before_replay_ms"`
	AfterMS         float64 `json:"after_replay_ms"`
	DeltaPercent    float64 `json:"delta_percent"`
	BeforeAllocsRun float64 `json:"before_allocs_per_run"`
	AfterAllocsRun  float64 `json:"after_allocs_per_run"`
	OutputsEqual    bool    `json:"outputs_equal"`
}

// replayPhaseDelta loads the previous record at path (if any) and compares
// its replay-phase total and per-run allocations against the current run.
func replayPhaseDelta(path string, cur []obs.PhaseStat, curAllocs float64, outputsEqual bool) *replayDelta {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil // first record at this path: nothing to compare
	}
	var prev struct {
		Optimized struct {
			AllocsPerRun float64 `json:"allocs_per_run"`
		} `json:"optimized_parallel_cloned"`
		Phases []obs.PhaseStat `json:"optimized_phase_timing"`
	}
	if json.Unmarshal(buf, &prev) != nil {
		return nil
	}
	find := func(stats []obs.PhaseStat) (float64, bool) {
		for _, st := range stats {
			if st.Phase == "replay" {
				return st.TotalMS, true
			}
		}
		return 0, false
	}
	before, okB := find(prev.Phases)
	after, okA := find(cur)
	if !okB || !okA || before <= 0 {
		return nil
	}
	return &replayDelta{
		BeforeMS:        before,
		AfterMS:         after,
		DeltaPercent:    (after - before) / before * 100,
		BeforeAllocsRun: prev.Optimized.AllocsPerRun,
		AfterAllocsRun:  curAllocs,
		OutputsEqual:    outputsEqual,
	}
}

// deliveryPhaseDelta loads the previous bench record at path (if any) and
// compares its delivery-plane phase totals against the current run's.
func deliveryPhaseDelta(path string, cur []obs.PhaseStat) []phaseDelta {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil // first record at this path: nothing to compare
	}
	var prev struct {
		Phases []obs.PhaseStat `json:"optimized_phase_timing"`
	}
	if json.Unmarshal(buf, &prev) != nil || len(prev.Phases) == 0 {
		return nil
	}
	find := func(stats []obs.PhaseStat, name string) (float64, bool) {
		for _, st := range stats {
			if st.Phase == name {
				return st.TotalMS, true
			}
		}
		return 0, false
	}
	var out []phaseDelta
	for _, name := range []string{"attach", "deliver_flood", "deliver_walk"} {
		before, okB := find(prev.Phases, name)
		after, okA := find(cur, name)
		if !okB || !okA || before <= 0 {
			continue
		}
		out = append(out, phaseDelta{
			Phase:        name,
			BeforeMS:     before,
			AfterMS:      after,
			DeltaPercent: (after - before) / before * 100,
		})
	}
	return out
}

// timedMatrix replays the full matrix under opt and measures wall time
// and heap allocation (matrix runs only; the shared lab is prebuilt).
func timedMatrix(lab *experiments.Lab, opt experiments.MatrixOptions) (experiments.Matrix, benchSide, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, err := lab.RunMatrixOpt(nil, nil, nil, opt)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, benchSide{}, err
	}
	runs := 0
	for _, per := range m {
		runs += len(per)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	side := benchSide{
		Workers:      workers,
		FreshGraphs:  opt.FreshGraphs,
		WallMS:       float64(wall.Milliseconds()),
		RunsPerSec:   float64(runs) / wall.Seconds(),
		AllocMB:      float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		AllocsPerRun: float64(after.Mallocs-before.Mallocs) / float64(runs),
	}
	if opt.Heap != nil {
		side.PeakHeapMB = opt.Heap.PeakMB()
	}
	return m, side, nil
}

// prevScaleRuns lifts the scale_runs block out of the previous record at
// path so a -benchjson regeneration does not erase -scalerun history.
func prevScaleRuns(path string) json.RawMessage {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var prev struct {
		ScaleRuns json.RawMessage `json:"scale_runs"`
	}
	if json.Unmarshal(buf, &prev) != nil {
		return nil
	}
	return prev.ScaleRuns
}

// runBenchJSON builds the lab once, replays the matrix under the baseline
// and optimized configurations, verifies their outputs are deep-equal,
// and writes the perf record to path.
func runBenchJSON(scaleName string, seed uint64, matrixWorkers int, path string, quiet bool) error {
	sc, err := experiments.ByName(scaleName)
	if err != nil {
		return err
	}
	sc.Seed = seed
	sc.MatrixWorkers = matrixWorkers
	progress := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	labStart := time.Now()
	progress("benchjson: building %s-scale lab…", sc.Name)
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return err
	}
	labBuild := time.Since(labStart)

	progress("benchjson: sequential baseline (fresh graphs, 1 worker)…")
	baseMat, base, err := timedMatrix(lab, experiments.MatrixOptions{Workers: 1, FreshGraphs: true})
	if err != nil {
		return err
	}
	matrixWorkers = sc.MatrixWorkers
	if matrixWorkers <= 0 {
		matrixWorkers = runtime.NumCPU()
	}
	progress("benchjson: parallel optimized (cloned graphs, %d workers)…", matrixWorkers)
	timing := &obs.Timing{}
	optHeap := obs.NewHeapGauge()
	optMat, opt, err := timedMatrix(lab, experiments.MatrixOptions{Workers: matrixWorkers, Timing: timing, Heap: optHeap})
	if err != nil {
		return err
	}

	runs := 0
	for _, per := range optMat {
		runs += len(per)
	}
	phases := timing.Stats()
	outputsEqual := reflect.DeepEqual(baseMat, optMat)
	rec := benchRecord{
		Scale:         sc.Name,
		Seed:          sc.Seed,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Runs:          runs,
		LabBuildMS:    float64(labBuild.Milliseconds()),
		Baseline:      base,
		Optimized:     opt,
		Phases:        phases,
		DeliveryDelta: deliveryPhaseDelta(path, phases),
		ReplayDelta:   replayPhaseDelta(path, phases, opt.AllocsPerRun, outputsEqual),
		OutputsEqual:  outputsEqual,
		ScaleRuns:     prevScaleRuns(path),
		When:          time.Now().UTC().Format(time.RFC3339),
	}
	// A speedup ratio only measures the parallel path when the process can
	// actually run workers concurrently; with one usable CPU the ratio is
	// scheduling noise around 1.0, so emit null rather than a bogus figure.
	if opt.Workers > 1 && runtime.GOMAXPROCS(0) > 1 {
		x := base.WallMS / opt.WallMS
		rec.SpeedupX = &x
	} else {
		rec.SpeedupNote = "single-CPU host: parallel side degenerates to the sequential schedule; compare wall_ms and allocs_per_run, not a speedup ratio"
	}
	if !rec.OutputsEqual {
		return fmt.Errorf("benchjson: parallel matrix differs from sequential baseline")
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	if rec.SpeedupX != nil {
		progress("benchjson: %.0f ms → %.0f ms (%.2fx, outputs equal) → %s",
			rec.Baseline.WallMS, rec.Optimized.WallMS, *rec.SpeedupX, path)
	} else {
		progress("benchjson: %.0f ms → %.0f ms (1 CPU, speedup n/a, outputs equal) → %s",
			rec.Baseline.WallMS, rec.Optimized.WallMS, path)
	}
	return nil
}
