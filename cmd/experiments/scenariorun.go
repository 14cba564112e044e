package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"asap/internal/benchio"
	"asap/internal/obs"
	"asap/internal/scenario"
)

// scenarioRecord is one scenario's entry in the scenarios block of the
// bench JSON: the headline search metrics plus the act counters, so the
// adversarial figures version alongside the perf records.
type scenarioRecord struct {
	Scheme         string  `json:"scheme"`
	Topology       string  `json:"topology"`
	Requests       int     `json:"requests"`
	SuccessRate    float64 `json:"success_rate"`
	MeanRespMS     float64 `json:"mean_resp_ms"`
	MeanSearchKB   float64 `json:"mean_search_kb"`
	Drops          int64   `json:"drops"`
	PartDrops      int64   `json:"part_drops"`
	Rewires        int64   `json:"rewires"`
	InterestShifts int64   `json:"interest_shifts"`
	WallMS         float64 `json:"wall_ms"`
	When           string  `json:"when"`
}

// runScenarioSweep replays the selected adversarial scenarios (default:
// every registered one), prints the sweep table, and — when a bench path
// is given — merges a scenarios block into it.
func runScenarioSweep(csv, seriesDir, benchPath string, quiet bool) error {
	var names []string
	if csv != "" {
		names = strings.Split(csv, ",")
	}
	var series *obs.Collector
	if seriesDir != "" {
		series = obs.NewCollector()
	}
	// The progress hook fires before each run, so each scenario's wall
	// time is the gap to the next firing (the last one closes at the end).
	start := time.Now()
	walls := map[string]float64{}
	last, lastName := start, ""
	sw, err := scenario.RunSweep(names, series, func(name string) {
		now := time.Now()
		if lastName != "" {
			walls[lastName] = float64(now.Sub(last).Milliseconds())
		}
		last, lastName = now, name
		if !quiet {
			fmt.Fprintf(os.Stderr, "scenario %s… (%v elapsed)\n", name, now.Sub(start).Round(time.Second))
		}
	})
	if err != nil {
		return err
	}
	if lastName != "" {
		walls[lastName] = float64(time.Since(last).Milliseconds())
	}
	if series != nil {
		files, err := obs.WriteDir(seriesDir, series.Runs())
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %d series files to %s\n", len(files), seriesDir)
		}
	}
	fmt.Println(scenario.FormatSweep(sw))
	if benchPath != "" {
		if err := mergeScenarioBench(benchPath, sw, walls); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "merged scenarios block into %s\n", benchPath)
		}
	}
	return nil
}

// mergeScenarioBench read-modify-writes the bench JSON at path: only the
// scenarios block changes; every other key survives verbatim.
func mergeScenarioBench(path string, sw *scenario.Sweep, walls map[string]float64) error {
	when := time.Now().UTC().Format(time.RFC3339)
	entries := map[string]any{}
	for _, r := range sw.Results {
		entries[r.Scenario.Name] = scenarioRecord{
			Scheme:         r.Summary.Scheme,
			Topology:       r.Summary.Topology,
			Requests:       r.Summary.Requests,
			SuccessRate:    r.Summary.SuccessRate,
			MeanRespMS:     r.Summary.MeanRespMS,
			MeanSearchKB:   r.Summary.MeanSearchBytes / 1024,
			Drops:          r.Summary.Drops,
			PartDrops:      scenario.ColumnSum(&r.Series, obs.CPartDrop.String()),
			Rewires:        scenario.ColumnSum(&r.Series, obs.CRewire.String()),
			InterestShifts: scenario.ColumnSum(&r.Series, obs.CInterestShift.String()),
			WallMS:         walls[r.Scenario.Name],
			When:           when,
		}
	}
	return benchio.MergeEntries(path, "scenarios", entries)
}
