package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"asap/internal/metrics"
)

// TestNilRecorderIsInert: a nil recorder samples nothing and a nil
// collector ignores Add — runs without a heap gauge or a series thread nil
// through, so any panic here is a crash in the default path.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.SetHeapGauge(NewHeapGauge())
	r.SampleHeap()
	NewRecorder(0).SampleHeap() // no gauge attached

	var c *Collector
	c.Add(RunSeries{Key: "x"})
	if got := c.Runs(); got != nil {
		t.Errorf("nil collector Runs() = %v, want nil", got)
	}
}

// TestRecorderRowFolding pins the row mapping the exported series shows:
// negative times land in the warm-up row, in-range times in their second,
// and times at or past the horizon fold into the final row.
func TestRecorderRowFolding(t *testing.T) {
	load := metrics.NewLoadAccount(3)
	load.Count(-1, metrics.CDrop)      // warm-up
	load.Count(-999999, metrics.CDrop) // deep warm-up
	load.Count(0, metrics.CRetry)      // second 0
	load.Count(999, metrics.CRetry)    // still second 0
	load.Count(1000, metrics.CTimeout) // second 1
	load.Count(2999, metrics.CDrop)    // second 2
	load.Count(3000, metrics.CDrop)    // past horizon: folds to second 2
	load.Count(1<<40, metrics.CDrop)   // far past horizon: same

	s := Series("k", load)
	cell := func(row []int64, e metrics.Event) int64 {
		return row[slices.Index(s.Columns, e.String())]
	}
	if got := cell(s.Warmup, metrics.CDrop); got != 2 {
		t.Errorf("warm-up drops = %d, want 2", got)
	}
	if got := cell(s.Rows[0], metrics.CRetry); got != 2 {
		t.Errorf("second-0 retries = %d, want 2", got)
	}
	if got := cell(s.Rows[1], metrics.CTimeout); got != 1 {
		t.Errorf("second-1 timeouts = %d, want 1", got)
	}
	if got := cell(s.Rows[2], metrics.CDrop); got != 3 {
		t.Errorf("final-row drops = %d, want 3 (1 in-range + 2 folded)", got)
	}
}

// TestRecorderSearchHistogram checks the latency bookkeeping the series
// exports: failures count searches and bytes but no latency, successes
// land in the log2 bucket of their response time, and huge latencies clamp
// to the last bucket.
func TestRecorderSearchHistogram(t *testing.T) {
	load := metrics.NewLoadAccount(2)
	book := func(ok bool, latMS, bytes int64) {
		load.Search(100, metrics.SearchResult{Success: ok, ResponseMS: latMS, Bytes: bytes})
	}
	book(false, 0, 500)
	book(true, 0, 100)     // 0 ms → bucket 0
	book(true, 3, 100)     // [2,4) → bucket 2
	book(true, 1<<30, 100) // clamps to last bucket
	book(true, -7, 100)    // negative latency clamps to bucket 0

	s := Series("k", load)
	cell := func(name string) int64 { return s.Rows[0][slices.Index(s.Columns, name)] }
	if got := cell("searches"); got != 5 {
		t.Errorf("searches = %d, want 5", got)
	}
	if got := cell("successes"); got != 4 {
		t.Errorf("successes = %d, want 4", got)
	}
	if got := cell("search_bytes"); got != 900 {
		t.Errorf("search bytes = %d, want 900", got)
	}
	if got := cell("latency_sum_ms"); got != 3+(1<<30)-7 {
		t.Errorf("latency sum = %d, want %d", got, 3+(1<<30)-7)
	}
	h := s.LatencyHist
	if h[0] != 2 || h[2] != 1 || h[metrics.HistBuckets-1] != 1 {
		t.Errorf("histogram %v: want 2 in bucket 0, 1 in bucket 2, 1 in last", h)
	}
}

// TestSeriesShape checks the exported table: schema width, row count,
// warm-up placement, and that counter values land under their named
// column.
func TestSeriesShape(t *testing.T) {
	load := metrics.NewLoadAccount(2)
	load.Count(-10, metrics.CDrop)
	load.Count(500, metrics.CCacheHit)
	load.Count(1500, metrics.CConfirmNeg)
	load.SetLive(0, 40)
	load.SetLive(1, 41)

	s := Series("asap-rw/crawled", load)
	if s.Key != "asap-rw/crawled" || s.Seconds != 2 {
		t.Fatalf("key %q seconds %d", s.Key, s.Seconds)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(s.Rows))
	}
	wantCols := 2 + 2*metrics.NumMsgClasses + metrics.NumEvents + 2
	if len(s.Columns) != wantCols || len(s.Warmup) != wantCols {
		t.Fatalf("schema width %d, warmup width %d, want %d", len(s.Columns), len(s.Warmup), wantCols)
	}
	for _, row := range s.Rows {
		if len(row) != wantCols {
			t.Fatalf("row width %d, want %d", len(row), wantCols)
		}
	}
	if s.Warmup[0] != -1 || s.Warmup[1] != 0 {
		t.Errorf("warmup row starts %v, want sec=-1 live=0", s.Warmup[:2])
	}
	cell := func(row []int64, name string) int64 {
		i := slices.Index(s.Columns, name)
		if i < 0 {
			t.Fatalf("column %q missing from %v", name, s.Columns)
		}
		return row[i]
	}
	if got := cell(s.Warmup, "drops"); got != 1 {
		t.Errorf("warmup drops = %d, want 1", got)
	}
	if got := cell(s.Rows[0], "cache_hits"); got != 1 {
		t.Errorf("second-0 cache_hits = %d, want 1", got)
	}
	if got := cell(s.Rows[1], "confirm_neg"); got != 1 {
		t.Errorf("second-1 confirm_neg = %d, want 1", got)
	}
	if got := cell(s.Rows[1], "sec"); got != 1 {
		t.Errorf("second-1 sec column = %d, want 1", got)
	}
	if got := cell(s.Rows[0], "live"); got != 40 {
		t.Errorf("second-0 live = %d, want 40", got)
	}

	// CSV shape: header + warmup + one line per second.
	lines := strings.Split(strings.TrimRight(string(s.CSV()), "\n"), "\n")
	if len(lines) != 1+1+2 {
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	if lines[0] != strings.Join(s.Columns, ",") {
		t.Error("CSV header differs from Columns")
	}
	if !strings.HasPrefix(lines[1], "-1,0,") {
		t.Errorf("CSV warmup line %q does not start with -1,0,", lines[1])
	}
}

// TestCollectorSortsByKey: Runs() must return key order no matter the Add
// order — that ordering is what makes the merged series worker-count
// independent.
func TestCollectorSortsByKey(t *testing.T) {
	c := NewCollector()
	for _, k := range []string{"c/z", "a/x", "b/y"} {
		c.Add(RunSeries{Key: k})
	}
	runs := c.Runs()
	got := []string{runs[0].Key, runs[1].Key, runs[2].Key}
	want := []string{"a/x", "b/y", "c/z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Runs() order %v, want %v", got, want)
		}
	}
}

// TestWriteDir checks file emission: one CSV and one JSON per run, with
// hostile key characters sanitised out of the stem.
func TestWriteDir(t *testing.T) {
	dir := t.TempDir()
	s := Series("asap-rw/crawled/loss=0.02", metrics.NewLoadAccount(1))
	paths, err := WriteDir(filepath.Join(dir, "series"), []RunSeries{s})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		base := filepath.Base(p)
		if strings.ContainsAny(base, "/\\") {
			t.Errorf("path separator leaked into file name %q", base)
		}
		if !strings.HasPrefix(base, "asap-rw_crawled_loss=0.02") {
			t.Errorf("file stem %q: key not sanitised as expected", base)
		}
		if _, err := os.Stat(p); err != nil {
			t.Errorf("reported path %s missing: %v", p, err)
		}
	}
	buf, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, s.CSV()) {
		t.Error("written CSV differs from Series.CSV()")
	}
}

// TestStartProfilesWritesFiles smoke-tests the CLI profiling hooks: with
// paths given — under a directory that does not exist yet, as the README's
// out/ examples are on a clean checkout — stop() leaves non-empty pprof
// files behind; with all hooks empty the call is a no-op.
func TestStartProfilesWritesFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out", "nested")
	cpu, mem, mtx := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb"), filepath.Join(dir, "mutex.pb")
	stop, err := StartProfiles(cpu, mem, mtx, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ { // a little work for the CPU profiler
		_ = metrics.NewLoadAccount(4)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, mtx} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s missing: %v", p, err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}

	stop, err = StartProfiles("", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("all-empty stop: %v", err)
	}
}

// TestStartProfilesRejectsBadPathUpFront: a profile path that cannot be
// created is reported by StartProfiles itself — whichever of the three it
// is — not by stop() after the whole run, and nothing is left profiling.
func TestStartProfilesRejectsBadPathUpFront(t *testing.T) {
	dir := t.TempDir()
	// A regular file where a directory is needed: unwritable for any user.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, good := filepath.Join(blocker, "p.pb"), filepath.Join(dir, "ok.pb")
	for _, tc := range []struct{ what, cpu, mem, mutex string }{
		{"cpu", bad, good, good},
		{"mem", good, bad, good},
		{"mutex", good, good, bad},
	} {
		stop, err := StartProfiles(tc.cpu, tc.mem, tc.mutex, "")
		if err == nil {
			stop()
			t.Errorf("bad %s path: StartProfiles succeeded", tc.what)
			continue
		}
		if !strings.Contains(err.Error(), tc.what+" profile") {
			t.Errorf("bad %s path: error %q does not name the profile", tc.what, err)
		}
	}
	// No CPU profile was left running by the failed attempts.
	stop, err := StartProfiles(good, "", "", "")
	if err != nil {
		t.Fatalf("after rejected paths: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
