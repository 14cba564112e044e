package scenario

import (
	"fmt"
	"strings"

	"asap/internal/obs"
)

// Sweep is one scenario-battery run: every selected scenario replayed
// end to end.
type Sweep struct {
	Results []*Result
}

// RunSweep replays the named scenarios (nil = every registered one, in
// registry order) and collects their results. A non-nil series collector
// receives each run's per-second observability series.
func RunSweep(names []string, series *obs.Collector, progress func(name string)) (*Sweep, error) {
	var sns []Scenario
	if names == nil {
		sns = append(sns, builtins...)
	} else {
		for _, name := range names {
			sn, err := Resolve(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			sns = append(sns, sn)
		}
	}
	sw := &Sweep{}
	for _, sn := range sns {
		if progress != nil {
			progress(sn.Name)
		}
		res, err := Run(sn)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sn.Name, err)
		}
		if series != nil {
			series.Add(res.Series)
		}
		sw.Results = append(sw.Results, res)
	}
	return sw, nil
}

// FormatSweep renders a sweep as an aligned table: one row per scenario
// with the headline search metrics plus the act-specific counters summed
// over the run (partition drops, rewires, interest shifts).
func FormatSweep(sw *Sweep) string {
	headers := []string{"scenario", "scheme", "topo", "requests", "success", "response ms",
		"KB/search", "drops", "part_drops", "rewires", "shifts"}
	var rows [][]string
	for _, r := range sw.Results {
		rows = append(rows, []string{
			r.Scenario.Name,
			r.Summary.Scheme,
			r.Summary.Topology,
			fmt.Sprintf("%d", r.Summary.Requests),
			fmt.Sprintf("%.3f", r.Summary.SuccessRate),
			fmt.Sprintf("%.0f", r.Summary.MeanRespMS),
			fmt.Sprintf("%.2f", r.Summary.MeanSearchBytes/1024),
			fmt.Sprintf("%d", r.Summary.Drops),
			fmt.Sprintf("%d", ColumnSum(&r.Series, obs.CPartDrop.String())),
			fmt.Sprintf("%d", ColumnSum(&r.Series, obs.CRewire.String())),
			fmt.Sprintf("%d", ColumnSum(&r.Series, obs.CInterestShift.String())),
		})
	}
	return "Scenario sweep (adversarial workloads)\n" + renderTable(headers, rows)
}

// ColumnSum totals one series column over warm-up and every second.
func ColumnSum(s *obs.RunSeries, col string) int64 {
	i := s.ColumnIndex(col)
	if i < 0 {
		return 0
	}
	total := s.Warmup[i]
	for _, row := range s.Rows {
		total += row[i]
	}
	return total
}

// renderTable prints an aligned text table (the experiments package keeps
// its own private copy; the format matches).
func renderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
