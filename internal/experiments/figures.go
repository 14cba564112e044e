package experiments

import (
	"fmt"
	"strings"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
)

// RenderTable prints an aligned text table: one header line, a dashed
// separator and the rows, every column padded to its widest cell.
func RenderTable(headers []string, rows [][]string) string {
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

// classTable renders a per-class count series (Figs. 2 and 3).
func classTable(title string, counts [content.NumClasses]int) string {
	rows := make([][]string, 0, content.NumClasses)
	for c := 0; c < content.NumClasses; c++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c), content.Class(c).String(), fmt.Sprintf("%d", counts[c]),
		})
	}
	return title + "\n" + RenderTable([]string{"class", "label", "peers"}, rows)
}

// FormatFig2 renders the semantic-class distribution of the selected
// peers' contents.
func FormatFig2(l *Lab) string {
	return classTable("Fig 2 — peers with shared contents per semantic class", l.Fig2())
}

// FormatFig3 renders the node-interest distribution.
func FormatFig3(l *Lab) string {
	return classTable("Fig 3 — peers per interest", l.Fig3())
}

// matrixTable renders one metric across the scheme × topology matrix.
func matrixTable(title string, m Matrix, cell func(metrics.Summary) string) string {
	headers := []string{"scheme"}
	for _, k := range overlay.Kinds {
		headers = append(headers, k.String())
	}
	var rows [][]string
	for _, s := range SchemeNames {
		per, ok := m[s]
		if !ok {
			continue
		}
		row := []string{s}
		for _, k := range overlay.Kinds {
			if sum, ok := per[k]; ok {
				row = append(row, cell(sum))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return title + "\n" + RenderTable(headers, rows)
}

// FormatFig4 renders search success rates.
func FormatFig4(m Matrix) string {
	return matrixTable("Fig 4 — search success rate (%)", m, func(s metrics.Summary) string {
		return fmt.Sprintf("%.1f", s.SuccessRate*100)
	})
}

// FormatFig5 renders mean response times.
func FormatFig5(m Matrix) string {
	return matrixTable("Fig 5 — mean response time (ms, successful searches)", m, func(s metrics.Summary) string {
		return fmt.Sprintf("%.0f", s.MeanRespMS)
	})
}

// FormatFig6 renders per-search bandwidth cost (the paper plots this on a
// log scale; orders of magnitude are the point).
func FormatFig6(m Matrix) string {
	return matrixTable("Fig 6 — bandwidth per search (KB)", m, func(s metrics.Summary) string {
		return fmt.Sprintf("%.2f", s.MeanSearchBytes/1024)
	})
}

// FormatFig7 renders the ASAP(RW) load breakdown: each message class's
// share of the scheme's total system load, plus its share of ad-delivery
// traffic alone — the paper quotes the latter ("around 91% ads system
// load is from patch ads or refresh ads and full ads contribute 8.5%").
func FormatFig7(sum metrics.Summary) string {
	type entry struct {
		class metrics.MsgClass
		label string
		isAd  bool
	}
	entries := []entry{
		{metrics.MAdFull, "full ads", true},
		{metrics.MAdPatch, "patch ads", true},
		{metrics.MAdRefresh, "refresh ads", true},
		{metrics.MConfirm, "confirmations", false},
		{metrics.MAdsRequest, "ads requests", false},
		{metrics.MControl, "control", false},
	}
	adTotal := 0.0
	for _, e := range entries {
		if e.isAd {
			adTotal += sum.Breakdown[e.class]
		}
	}
	var rows [][]string
	for _, e := range entries {
		share := sum.Breakdown[e.class] * 100
		adShare := "-"
		if e.isAd && adTotal > 0 {
			adShare = fmt.Sprintf("%.1f", sum.Breakdown[e.class]/adTotal*100)
		}
		rows = append(rows, []string{e.label, fmt.Sprintf("%.1f", share), adShare})
	}
	title := fmt.Sprintf("Fig 7 — %s system-load breakdown on %s (%% of bytes)", sum.Scheme, sum.Topology)
	return title + "\n" + RenderTable([]string{"message class", "share of load %", "share of ads %"}, rows)
}

// FormatFig8 renders mean system load.
func FormatFig8(m Matrix) string {
	return matrixTable("Fig 8 — mean system load (KB/node/s)", m, func(s metrics.Summary) string {
		return fmt.Sprintf("%.3f", s.LoadMeanKBps)
	})
}

// FormatFig9 renders system-load standard deviation.
func FormatFig9(m Matrix) string {
	return matrixTable("Fig 9 — system load stddev (KB/node/s)", m, func(s metrics.Summary) string {
		return fmt.Sprintf("%.3f", s.LoadStdKBps)
	})
}

// FormatFig10 renders a window of the per-second load series on the
// crawled topology for every scheme in the matrix, mirroring the paper's
// 100-second snapshot.
func FormatFig10(m Matrix, window int) string {
	if window <= 0 {
		window = 100
	}
	series := map[string][]float64{}
	maxLen := 0
	for _, s := range SchemeNames {
		if per, ok := m[s]; ok {
			if sum, ok := per[overlay.Crawled]; ok {
				series[s] = sum.LoadSeries
				if len(sum.LoadSeries) > maxLen {
					maxLen = len(sum.LoadSeries)
				}
			}
		}
	}
	if maxLen == 0 {
		return "Fig 10 — no crawled-topology series available\n"
	}
	// Pick a window in the middle of the run (the system is warm and churn
	// is active).
	start := maxLen / 3
	if start+window > maxLen {
		start = max(0, maxLen-window)
	}
	headers := []string{"second"}
	var present []string
	for _, s := range SchemeNames {
		if _, ok := series[s]; ok {
			headers = append(headers, s)
			present = append(present, s)
		}
	}
	var rows [][]string
	for t := start; t < start+window && t < maxLen; t++ {
		row := []string{fmt.Sprintf("%d", t)}
		for _, s := range present {
			sr := series[s]
			if t < len(sr) {
				row = append(row, fmt.Sprintf("%.3f", sr[t]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Fig 10 — real-time system load, crawled topology, %d s window (KB/node/s)", window)
	return title + "\n" + RenderTable(headers, rows)
}

// Claim is one of the paper's headline comparative results, checked
// against a reproduced matrix.
type Claim struct {
	ID   string
	Text string
	Pass bool
	Note string
}

// CheckClaims evaluates the paper's headline claims (DESIGN.md §3) on the
// crawled topology, which the paper uses for its detailed discussion.
func CheckClaims(m Matrix) []Claim {
	crawled := func(s string) (metrics.Summary, bool) {
		per, ok := m[s]
		if !ok {
			return metrics.Summary{}, false
		}
		sum, ok := per[overlay.Crawled]
		return sum, ok
	}
	flood, okF := crawled("flooding")
	rw, okR := crawled("random-walk")
	gsa, okG := crawled("gsa")
	aFld, okAF := crawled("asap-fld")
	aRw, okAR := crawled("asap-rw")
	// Every claim is reported; one whose runs are absent from m fails as
	// "missing runs".
	var claims []Claim
	add := func(id, text string, ok bool, check func() (bool, string)) {
		c := Claim{ID: id, Text: text, Note: "missing runs"}
		if ok {
			c.Pass, c.Note = check()
		}
		claims = append(claims, c)
	}
	add("C1", "ASAP response ≥62% shorter than flooding", okF && okAR, func() (bool, string) {
		imp := 1 - aRw.MeanRespMS/flood.MeanRespMS
		return imp >= 0.5, fmt.Sprintf("improvement %.0f%%", imp*100)
	})
	add("C2", "ASAP search cost 2–3 orders below flooding", okF && okAR, func() (bool, string) {
		ratio := flood.MeanSearchBytes / aRw.MeanSearchBytes
		return ratio >= 100, fmt.Sprintf("ratio %.0fx", ratio)
	})
	add("C3", "ASAP load well below flooding", okF && okAR, func() (bool, string) {
		loadRatio := flood.LoadMeanKBps / aRw.LoadMeanKBps
		return loadRatio >= 2, fmt.Sprintf("ratio %.1fx", loadRatio)
	})
	add("C4", "ASAP load variance below flooding's", okF && okAR, func() (bool, string) {
		return aRw.LoadStdKBps < flood.LoadStdKBps, fmt.Sprintf("%.3f vs %.3f", aRw.LoadStdKBps, flood.LoadStdKBps)
	})
	add("C5", "random walk/GSA success suffers under low replication", okR && okG && okF, func() (bool, string) {
		return rw.SuccessRate < flood.SuccessRate,
			fmt.Sprintf("rw %.1f%% gsa %.1f%% vs flood %.1f%%", rw.SuccessRate*100, gsa.SuccessRate*100, flood.SuccessRate*100)
	})
	add("C6", "ASAP(FLD) highest load, ASAP(RW) lowest load", okAF && okAR, func() (bool, string) {
		return aRw.LoadMeanKBps < aFld.LoadMeanKBps,
			fmt.Sprintf("rw %.3f vs fld %.3f KB/node/s", aRw.LoadMeanKBps, aFld.LoadMeanKBps)
	})
	add("C7", "patch+refresh ads dominate steady-state ad traffic", okAR, func() (bool, string) {
		frac := aRw.Breakdown[metrics.MAdPatch] + aRw.Breakdown[metrics.MAdRefresh]
		return frac > 0.5, fmt.Sprintf("patch+refresh %.0f%%, full %.0f%%", frac*100, aRw.Breakdown[metrics.MAdFull]*100)
	})
	return claims
}

// FormatClaims renders claim-check results.
func FormatClaims(claims []Claim) string {
	var rows [][]string
	for _, c := range claims {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		rows = append(rows, []string{c.ID, status, c.Text, c.Note})
	}
	return "Headline claims (crawled topology)\n" + RenderTable([]string{"id", "status", "claim", "measured"}, rows)
}
