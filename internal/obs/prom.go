package obs

import (
	"bytes"
	"strconv"
	"strings"

	"asap/internal/metrics"
)

// Prometheus text exposition (format version 0.0.4) for the observability
// plane: the serving layer's /metrics endpoint renders a run ledger's
// totals and response-latency histogram through a PromWriter, alongside
// the serving plane's own wall-clock counters. The CSV/JSON series
// (series.go) stay the replay-analysis surface; this is the scrape surface.

// PromWriter accumulates metric families in Prometheus text exposition
// format. Each helper emits the # HELP / # TYPE header followed by the
// samples; families must not repeat a name.
type PromWriter struct {
	b bytes.Buffer
}

// header writes the HELP/TYPE preamble for one family.
func (w *PromWriter) header(name, help, typ string) {
	w.b.WriteString("# HELP ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(escapeHelp(help))
	w.b.WriteString("\n# TYPE ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(typ)
	w.b.WriteByte('\n')
}

// Counter emits one cumulative counter sample.
func (w *PromWriter) Counter(name, help string, v int64) {
	w.header(name, help, "counter")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(strconv.FormatInt(v, 10))
	w.b.WriteByte('\n')
}

// Histogram emits one histogram family: cumulative _bucket samples for the
// given le upper bounds (cum[i] observations ≤ les[i]), the implicit +Inf
// bucket at count, then _sum and _count. les must be strictly increasing
// and cum non-decreasing — the exposition grammar's invariants.
func (w *PromWriter) Histogram(name, help string, les []float64, cum []int64, count int64, sum float64) {
	w.header(name, help, "histogram")
	for i, le := range les {
		w.b.WriteString(name)
		w.b.WriteString(`_bucket{le="`)
		w.b.WriteString(formatFloat(le))
		w.b.WriteString(`"} `)
		w.b.WriteString(strconv.FormatInt(cum[i], 10))
		w.b.WriteByte('\n')
	}
	w.b.WriteString(name)
	w.b.WriteString(`_bucket{le="+Inf"} `)
	w.b.WriteString(strconv.FormatInt(count, 10))
	w.b.WriteByte('\n')
	w.b.WriteString(name)
	w.b.WriteString("_sum ")
	w.b.WriteString(formatFloat(sum))
	w.b.WriteByte('\n')
	w.b.WriteString(name)
	w.b.WriteString("_count ")
	w.b.WriteString(strconv.FormatInt(count, 10))
	w.b.WriteByte('\n')
}

// Bytes returns the accumulated exposition body.
func (w *PromWriter) Bytes() []byte { return w.b.Bytes() }

// String returns the accumulated exposition body as a string.
func (w *PromWriter) String() string { return w.b.String() }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes a HELP string per the exposition format (backslash
// and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promName maps an internal label to a legal metric-name fragment:
// anything outside [a-zA-Z0-9_:] becomes '_' (column labels such as
// "msgs_query-hit" carry hyphens).
func promName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, s)
}

// WriteProm renders a run ledger's totals as Prometheus metric families
// under the asap_ prefix: every event and message-copy column summed over
// all rows (warm-up included), the search-cost byte total, and the
// response-latency histogram (log2 millisecond buckets re-expressed as
// cumulative le bounds in seconds).
func WriteProm(w *PromWriter, load *metrics.LoadAccount) {
	counter := func(label string, v int64) {
		w.Counter("asap_"+promName(label)+"_total", "Total "+label+" across the run.", v)
	}
	for e := metrics.Event(0); e < metrics.NumEvents; e++ {
		counter(e.String(), load.Total(e))
	}
	for c := metrics.MsgClass(0); c < metrics.NumMsgClasses; c++ {
		counter("msgs_"+c.String(), load.Copies(c))
	}
	bytesTotal, latSum := load.SearchSums()
	w.Counter("asap_search_cost_bytes_total", "Total per-search traffic cost in bytes.", bytesTotal)

	// The sim-time response histogram: bucket b holds successes with
	// response in [2^(b-1), 2^b) ms, so integer-valued samples satisfy
	// "≤ 2^b − 1 ms" exactly — the le bounds below, in seconds.
	hist := load.Hist()
	var les []float64
	var cum []int64
	var run int64
	for b := 0; b < metrics.HistBuckets-1; b++ {
		run += hist[b]
		les = append(les, float64(int64(1)<<b-1)/1000)
		cum = append(cum, run)
	}
	w.Histogram("asap_search_response_seconds",
		"Modelled response latency of successful searches (sim time).",
		les, cum, run+hist[metrics.HistBuckets-1], float64(latSum)/1000)
}
