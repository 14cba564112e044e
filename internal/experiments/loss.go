package experiments

import (
	"fmt"

	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
)

// LossPoint is one cell of a loss sweep: a scheme's summary under one
// message-loss rate.
type LossPoint struct {
	Scheme   string
	LossRate float64
	Summary  metrics.Summary
}

// LossSweep holds a scheme × loss-rate grid on one topology.
type LossSweep struct {
	Topology overlay.Kind
	Rates    []float64
	Points   []LossPoint
}

// RunLossSweep replays every scheme on one topology under each loss rate,
// rebuilding the lab per rate so each point is exactly the -loss <rate>
// run of the CLI. Rate 0 is the paper's reliable network; the sweep shows
// how gracefully each scheme's success rate and response time degrade as
// the network loses messages, and what the retry machinery spends to get
// there.
//
// A non-nil series collects each point's per-second observability series,
// keyed "scheme/topology/loss=<rate>".
func RunLossSweep(sc Scale, schemes []string, topo overlay.Kind, rates []float64, series *obs.Collector) (LossSweep, error) {
	if len(rates) == 0 {
		return LossSweep{}, fmt.Errorf("experiments: no loss rates")
	}
	if schemes == nil {
		schemes = SchemeNames
	}
	sweep := LossSweep{Topology: topo, Rates: rates}
	for _, rate := range rates {
		s := sc
		s.LossRate = rate
		lab, err := NewLab(s)
		if err != nil {
			return LossSweep{}, fmt.Errorf("experiments: loss %v: %w", rate, err)
		}
		for _, scheme := range schemes {
			var sum metrics.Summary
			if series != nil {
				// Collect into a private sub-collector so the sweep can
				// suffix the keys with the loss rate before publishing.
				sub := obs.NewCollector()
				sum, err = lab.RunObs(scheme, topo, sub)
				for _, rs := range sub.Runs() {
					rs.Key = fmt.Sprintf("%s/loss=%g", rs.Key, rate)
					series.Add(rs)
				}
			} else {
				sum, err = lab.Run(scheme, topo)
			}
			if err != nil {
				return LossSweep{}, err
			}
			sweep.Points = append(sweep.Points, LossPoint{Scheme: scheme, LossRate: rate, Summary: sum})
		}
	}
	return sweep, nil
}

// FormatLossSweep renders a sweep as an aligned table.
func FormatLossSweep(sw LossSweep) string {
	headers := []string{"scheme", "loss", "success", "response ms", "KB/search", "drops", "retries", "timeouts"}
	var rows [][]string
	for _, p := range sw.Points {
		rows = append(rows, []string{
			p.Scheme,
			fmt.Sprintf("%.0f%%", p.LossRate*100),
			fmt.Sprintf("%.3f", p.Summary.SuccessRate),
			fmt.Sprintf("%.0f", p.Summary.MeanRespMS),
			fmt.Sprintf("%.2f", p.Summary.MeanSearchBytes/1024),
			fmt.Sprintf("%d", p.Summary.Drops),
			fmt.Sprintf("%d", p.Summary.Retries),
			fmt.Sprintf("%d", p.Summary.Timeouts),
		})
	}
	title := fmt.Sprintf("Loss sweep (%s topology)", sw.Topology)
	return title + "\n" + RenderTable(headers, rows)
}
