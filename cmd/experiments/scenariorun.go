package main

import (
	"fmt"
	"strings"
	"time"

	"asap/internal/obs"
	"asap/internal/scenario"
)

// runScenarioSweep replays the selected adversarial scenarios (default:
// every registered one) and prints the sweep table.
func runScenarioSweep(csv string, o options) error {
	var names []string
	if csv != "" {
		names = strings.Split(csv, ",")
	}
	start := time.Now()
	sw, err := scenario.RunSweep(names, func(name string) {
		o.progress("scenario %s… (%v elapsed)", name, time.Since(start).Round(time.Second))
	})
	if err != nil {
		return err
	}
	if o.seriesDir != "" {
		runs := make([]obs.RunSeries, len(sw.Results))
		for i, r := range sw.Results {
			runs[i] = r.Series
		}
		if err := o.writeSeries(runs); err != nil {
			return err
		}
	}
	fmt.Println(scenario.FormatSweep(sw))
	return nil
}
