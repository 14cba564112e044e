package experiments

import (
	"fmt"

	"asap/internal/overlay"
)

// LossPoint is one cell of a loss sweep: a scheme's run under one
// message-loss rate.
type LossPoint struct {
	Cell
	LossRate float64
}

// LossSweep holds a scheme × loss-rate grid on one topology.
type LossSweep struct {
	Topology overlay.Kind
	Rates    []float64
	Points   []LossPoint
}

// RunLossSweep replays every scheme on one topology under each loss rate:
// one lab serves every rate, and each rate's schemes run as one matrix,
// so each point is exactly the -loss <rate> run of the CLI. Rate 0 is the
// paper's reliable network; the sweep shows how gracefully each scheme's
// success rate and response time degrade as the network loses messages,
// and what the retry machinery spends to get there. Points are
// rate-major, schemes in the given order.
func RunLossSweep(sc Scale, schemes []string, topo overlay.Kind, rates []float64) (LossSweep, error) {
	if len(rates) == 0 {
		return LossSweep{}, fmt.Errorf("experiments: no loss rates")
	}
	lab, err := NewLab(sc)
	if err != nil {
		return LossSweep{}, err
	}
	sweep := LossSweep{Topology: topo, Rates: rates}
	for _, rate := range rates {
		lab.Scale.LossRate = rate
		cells, err := lab.RunMatrix(schemes, []overlay.Kind{topo}, nil)
		if err != nil {
			return LossSweep{}, fmt.Errorf("experiments: loss %v: %w", rate, err)
		}
		for _, c := range cells {
			sweep.Points = append(sweep.Points, LossPoint{Cell: c, LossRate: rate})
		}
	}
	return sweep, nil
}

// Key names the point's run, "scheme/topology/loss=<rate>" — its series
// key.
func (p LossPoint) Key() string { return fmt.Sprintf("%s/loss=%g", p.Cell.Key(), p.LossRate) }

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
