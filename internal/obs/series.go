package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"asap/internal/metrics"
)

// RunSeries is one run's per-second observability table: a fixed column
// schema over int64 rows, plus the warm-up aggregate and the response-time
// histogram. Everything in it derives from deterministic simulated time,
// so two replays of the same run — at any worker count — produce
// byte-identical series.
type RunSeries struct {
	// Key names the run, e.g. "asap-rw/crawled" or
	// "flooding/crawled/loss=0.02". It doubles as the output file stem.
	Key string `json:"key"`
	// Seconds is the number of per-second rows.
	Seconds int `json:"seconds"`
	// Columns labels the row fields, in order.
	Columns []string `json:"columns"`
	// Warmup aggregates pre-trace (t < 0) activity in the row schema, with
	// sec = -1 and live = 0.
	Warmup []int64 `json:"warmup"`
	// Rows holds one entry per second, each in the Columns schema.
	Rows [][]int64 `json:"rows"`
	// LatencyHist is the log2-bucketed response-time histogram of
	// successful searches: bucket i covers [2^(i-1), 2^i) ms.
	LatencyHist []int64 `json:"latency_hist_log2_ms"`
}

// Series snapshots a run's ledger into one table keyed by key: each row is
// the second and its live-node count followed by the ledger's row (see
// metrics.Columns). Call after the run completes.
func Series(key string, load *metrics.LoadAccount) RunSeries {
	s := RunSeries{
		Key:         key,
		Seconds:     load.Seconds(),
		Columns:     append([]string{"sec", "live"}, metrics.Columns()...),
		LatencyHist: load.Hist(),
	}
	row := func(sec, live int) []int64 {
		return append([]int64{int64(sec), int64(live)}, load.Row(sec)...)
	}
	s.Warmup = row(-1, 0)
	s.Rows = make([][]int64, 0, s.Seconds)
	for sec := 0; sec < s.Seconds; sec++ {
		s.Rows = append(s.Rows, row(sec, load.Live(sec)))
	}
	return s
}

// CSV renders the series as one CSV document: a header line, the warm-up
// row, then one row per second.
func (s *RunSeries) CSV() []byte {
	var b strings.Builder
	b.WriteString(strings.Join(s.Columns, ","))
	b.WriteByte('\n')
	writeRow := func(vals []int64) {
		for i, v := range vals {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(v, 10))
		}
		b.WriteByte('\n')
	}
	writeRow(s.Warmup)
	for _, row := range s.Rows {
		writeRow(row)
	}
	return []byte(b.String())
}

// JSON renders the series as indented JSON.
func (s *RunSeries) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// fileStem maps a series key to a safe file name stem.
func fileStem(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '=':
			return r
		default:
			return '_'
		}
	}, key)
}

// WriteDir writes each series as <dir>/<key>.csv and <dir>/<key>.json,
// creating dir as needed, and returns the written paths in order.
func WriteDir(dir string, runs []RunSeries) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: creating %s: %w", dir, err)
	}
	var paths []string
	for i := range runs {
		s := &runs[i]
		stem := filepath.Join(dir, fileStem(s.Key))
		if err := os.WriteFile(stem+".csv", s.CSV(), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, stem+".csv")
		buf, err := s.JSON()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(stem+".json", buf, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, stem+".json")
	}
	return paths, nil
}
