package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"asap/internal/benchio"
	"asap/internal/experiments"
	"asap/internal/obs"
	"asap/internal/overlay"
)

// scaleRunRecord is one -scalerun entry in the scale_runs block of the
// bench JSON: the first-ever wall time and peak live heap of replaying a
// preset's whole scheme×topology matrix end to end on this host.
// Wall-clock figures: comparable within one host, not across machines.
type scaleRunRecord struct {
	Scale      string  `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Runs       int     `json:"runs"`
	Peers      int     `json:"peers"`
	Queries    int     `json:"queries"`
	LabBuildMS float64 `json:"lab_build_ms"`
	WallMS     float64 `json:"wall_ms"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	When       string  `json:"when"`
}

// runScaleRun replays the preset's whole matrix end to end and merges its
// record into the scale_runs block at path, preserving every other key of
// the file.
func runScaleRun(preset string, seed uint64, matrixWorkers int, path string, quiet bool) error {
	sc, err := experiments.ByName(preset)
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
	progress("scalerun: building %s-scale lab (network, universe, trace)…", sc.Name)
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return err
	}
	st := lab.Tr.Stats()
	rec := scaleRunRecord{
		Scale:      sc.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Peers:      len(lab.Tr.Peers),
		Queries:    st.Queries,
		LabBuildMS: float64(time.Since(labStart).Milliseconds()),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	progress("scalerun: lab ready in %.0f ms: %s", rec.LabBuildMS, st)

	start := time.Now()
	gauge := obs.NewHeapGauge()
	m, err := lab.RunMatrixOpt(nil, nil, func(s string, k overlay.Kind) {
		progress("scalerun: running %-12s on %-8s (%v elapsed)", s, k, time.Since(start).Round(time.Second))
	}, experiments.MatrixOptions{Workers: lab.Scale.MatrixWorkers, Heap: gauge})
	if err != nil {
		return err
	}
	for _, per := range m {
		rec.Runs += len(per)
	}
	rec.WallMS = float64(time.Since(start).Milliseconds())
	rec.PeakHeapMB = gauge.PeakMB()

	if err := benchio.MergeEntry(path, "scale_runs", preset, rec); err != nil {
		return err
	}
	progress("scalerun: %s recorded (%.0f ms wall, %.0f MB peak heap) → %s",
		preset, rec.WallMS, rec.PeakHeapMB, path)
	return nil
}
