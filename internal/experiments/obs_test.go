package experiments

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"asap/internal/obs"
	"asap/internal/overlay"
)

// serializeRuns renders every cell's series to its CSV and JSON forms,
// concatenated in cell order — the byte-level artifact -series writes.
func serializeRuns(t *testing.T, cells []Cell) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range cells {
		rs := obs.Series(c.Key(), c.Load)
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

// TestObsSeriesWorkerDeterminism: with a fault plane active, both the
// matrix summaries and the byte-serialized series must be identical for
// any matrix worker count. Every counter lands on a row keyed by
// deterministic replay time and RunMatrix returns cells in cell order, so
// scheduling must never show through.
func TestObsSeriesWorkerDeterminism(t *testing.T) {
	sc := ScaleTiny()
	sc.LossRate = 0.02
	run := func(workers int) []Cell {
		s := sc
		s.MatrixWorkers = workers
		lab, err := NewLab(s)
		if err != nil {
			t.Fatalf("lab: %v", err)
		}
		cells, err := lab.RunMatrix(lossySchemes, []overlay.Kind{overlay.Crawled}, nil)
		if err != nil {
			t.Fatalf("matrix (%d workers): %v", workers, err)
		}
		return cells
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(MatrixOf(seq), MatrixOf(par)) {
		t.Fatal("matrix differs across worker counts")
	}
	seqB, parB := serializeRuns(t, seq), serializeRuns(t, par)
	if !bytes.Equal(seqB, parB) {
		t.Fatal("serialized series differ across worker counts")
	}

	if len(seq) != len(lossySchemes) {
		t.Fatalf("got %d cells, want %d", len(seq), len(lossySchemes))
	}
	for _, c := range seq {
		rs := obs.Series(c.Key(), c.Load)
		if len(rs.Rows) != rs.Seconds {
			t.Errorf("%s: %d rows, want %d seconds", rs.Key, len(rs.Rows), rs.Seconds)
		}
		if len(rs.Warmup) != len(rs.Columns) {
			t.Errorf("%s: warmup row has %d fields, want %d", rs.Key, len(rs.Warmup), len(rs.Columns))
		}
		var drops, searches int64
		ci := slices.Index(rs.Columns, "drops")
		si := slices.Index(rs.Columns, "searches")
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
// totals.
func TestObsSeriesMatchesSummary(t *testing.T) {
	sc := ScaleTiny()
	sc.LossRate = 0.02
	lab, err := NewLab(sc)
	if err != nil {
		t.Fatalf("lab: %v", err)
	}
	c, err := lab.run("asap-rw", overlay.Crawled)
	if err != nil {
		t.Fatal(err)
	}
	observed := c.Summary
	rs := obs.Series(c.Key(), c.Load)
	if rs.Key != "asap-rw/crawled" {
		t.Errorf("series key %q, want asap-rw/crawled", rs.Key)
	}
	var searches, successes int64
	si, oi := slices.Index(rs.Columns, "searches"), slices.Index(rs.Columns, "successes")
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

}
