package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"asap/internal/obs"
	"asap/internal/scenario"
)

// runScenarioSweep replays the selected adversarial scenarios (default:
// every registered one) and prints the sweep table.
func runScenarioSweep(csv, seriesDir string, quiet bool) error {
	var names []string
	if csv != "" {
		names = strings.Split(csv, ",")
	}
	var series *obs.Collector
	if seriesDir != "" {
		series = obs.NewCollector()
	}
	start := time.Now()
	sw, err := scenario.RunSweep(names, series, func(name string) {
		if !quiet {
			fmt.Fprintf(os.Stderr, "scenario %s… (%v elapsed)\n", name, time.Since(start).Round(time.Second))
		}
	})
	if err != nil {
		return err
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
	return nil
}
