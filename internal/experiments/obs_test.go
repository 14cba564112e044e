package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"asap/internal/obs"
	"asap/internal/overlay"
)

// serializeRuns renders every collected series to its CSV and JSON forms,
// concatenated in key order — the byte-level artifact -series writes.
func serializeRuns(t *testing.T, c *obs.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rs := range c.Runs() {
		buf.WriteString(rs.Key)
		buf.WriteByte('\n')
		buf.Write(rs.CSV())
		j, err := rs.JSON()
		if err != nil {
			t.Fatalf("series %s: %v", rs.Key, err)
		}
		buf.Write(j)
	}
	return buf.Bytes()
}

// TestObsSeriesWorkerDeterminism: with series collection on and a fault
// plane active, both the matrix summaries and the byte-serialized series
// must be identical for any matrix worker count. Every counter lands on a
// row keyed by deterministic replay time and the collector orders runs by
// key, so scheduling must never show through.
func TestObsSeriesWorkerDeterminism(t *testing.T) {
	sc := ScaleTiny()
	sc.LossRate = 0.02
	run := func(workers int) (Matrix, *obs.Collector) {
		lab, err := NewLab(sc)
		if err != nil {
			t.Fatalf("lab: %v", err)
		}
		col := obs.NewCollector()
		m, err := lab.RunMatrixOpt(lossySchemes, []overlay.Kind{overlay.Crawled}, nil,
			MatrixOptions{Workers: workers, Series: col})
		if err != nil {
			t.Fatalf("matrix (%d workers): %v", workers, err)
		}
		return m, col
	}
	seqM, seqC := run(1)
	parM, parC := run(4)
	if !reflect.DeepEqual(seqM, parM) {
		t.Fatal("matrix differs across worker counts with series collection on")
	}
	seqB, parB := serializeRuns(t, seqC), serializeRuns(t, parC)
	if !bytes.Equal(seqB, parB) {
		t.Fatal("serialized series differ across worker counts")
	}

	runs := seqC.Runs()
	if len(runs) != len(lossySchemes) {
		t.Fatalf("collected %d series, want %d", len(runs), len(lossySchemes))
	}
	for _, rs := range runs {
		if len(rs.Rows) != rs.Seconds {
			t.Errorf("%s: %d rows, want %d seconds", rs.Key, len(rs.Rows), rs.Seconds)
		}
		if len(rs.Warmup) != len(rs.Columns) {
			t.Errorf("%s: warmup row has %d fields, want %d", rs.Key, len(rs.Warmup), len(rs.Columns))
		}
		var drops, searches int64
		ci := rs.ColumnIndex("drops")
		si := rs.ColumnIndex("searches")
		if ci < 0 || si < 0 {
			t.Fatalf("%s: missing drops/searches columns in %v", rs.Key, rs.Columns)
		}
		for _, row := range rs.Rows {
			drops += row[ci]
			searches += row[si]
		}
		if drops == 0 {
			t.Errorf("%s: 2%% loss recorded zero drops in the series", rs.Key)
		}
		if searches == 0 {
			t.Errorf("%s: series recorded zero searches", rs.Key)
		}
	}
}

// TestObsSeriesMatchesSummary: the series is an honest decomposition —
// summing its per-second search/success counters reproduces the summary's
// totals, and attaching the recorder must not change the summary at all
// (the obs plane observes, never perturbs).
func TestObsSeriesMatchesSummary(t *testing.T) {
	sc := ScaleTiny()
	sc.LossRate = 0.02
	lab, err := NewLab(sc)
	if err != nil {
		t.Fatalf("lab: %v", err)
	}
	bare, err := lab.run("asap-rw", overlay.Crawled, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	timing := &obs.Timing{}
	observed, err := lab.run("asap-rw", overlay.Crawled, false, col, timing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("attaching the obs plane changed the summary:\nbare:     %+v\nobserved: %+v", bare, observed)
	}

	runs := col.Runs()
	if len(runs) != 1 {
		t.Fatalf("collected %d series, want 1", len(runs))
	}
	rs := runs[0]
	if rs.Key != "asap-rw/crawled" {
		t.Errorf("series key %q, want asap-rw/crawled", rs.Key)
	}
	var searches, successes int64
	si, oi := rs.ColumnIndex("searches"), rs.ColumnIndex("successes")
	for _, row := range rs.Rows {
		searches += row[si]
		successes += row[oi]
	}
	if searches != int64(observed.Requests) {
		t.Errorf("series searches %d != summary requests %d", searches, observed.Requests)
	}
	wantOK := int64(observed.SuccessRate*float64(observed.Requests) + 0.5)
	if successes != wantOK {
		t.Errorf("series successes %d != summary successes %d", successes, wantOK)
	}

	// Phase timing is wall-clock and unasserted numerically, but the
	// phases that must have run in this configuration have to be present.
	stats := timing.Stats()
	seen := map[string]bool{}
	for _, ps := range stats {
		if ps.Count <= 0 || ps.TotalMS < 0 {
			t.Errorf("phase %s: count %d total %.3fms", ps.Phase, ps.Count, ps.TotalMS)
		}
		seen[ps.Phase] = true
	}
	for _, want := range []string{"topo_clone", "attach", "replay", "search_phase1", "deliver_walk"} {
		if !seen[want] {
			t.Errorf("phase %s missing from timing stats (got %v)", want, stats)
		}
	}
}
