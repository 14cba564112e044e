package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asap/internal/metrics"
)

// TestNilRecorderIsInert: every recording method must be a no-op on a nil
// recorder — the obs-off configuration threads nil through the whole
// simulator, so any panic here is a crash in the default path.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Count(0, CDrop)
	r.CountMsg(1000, metrics.MsgClass(0))
	r.Search(-500, true, 12, 900)
	r.End(PReplay, r.Begin())
	if r.Seconds() != 0 {
		t.Errorf("nil recorder Seconds() = %d, want 0", r.Seconds())
	}
	if r.Timing() != nil {
		t.Error("nil recorder Timing() != nil")
	}

	var tm *Timing
	(&Timing{}).Merge(tm) // nil argument is a no-op

	var c *Collector
	c.Add(RunSeries{Key: "x"})
	if got := c.Runs(); got != nil {
		t.Errorf("nil collector Runs() = %v, want nil", got)
	}
}

// TestRecorderRowFolding pins the row mapping shared with LoadAccount:
// negative times land in the warm-up row, in-range times in their second,
// and times at or past the horizon fold into the final row.
func TestRecorderRowFolding(t *testing.T) {
	r := NewRecorder(3)
	r.Count(-1, CDrop)      // warm-up
	r.Count(-999999, CDrop) // deep warm-up
	r.Count(0, CRetry)      // second 0
	r.Count(999, CRetry)    // still second 0
	r.Count(1000, CTimeout) // second 1
	r.Count(2999, CDrop)    // second 2
	r.Count(3000, CDrop)    // past horizon: folds to second 2
	r.Count(1<<40, CDrop)   // far past horizon: same

	if got := r.get(0, CDrop); got != 2 {
		t.Errorf("warm-up drops = %d, want 2", got)
	}
	if got := r.get(1, CRetry); got != 2 {
		t.Errorf("second-0 retries = %d, want 2", got)
	}
	if got := r.get(2, CTimeout); got != 1 {
		t.Errorf("second-1 timeouts = %d, want 1", got)
	}
	if got := r.get(3, CDrop); got != 3 {
		t.Errorf("final-row drops = %d, want 3 (1 in-range + 2 folded)", got)
	}
}

// TestRecorderSearchHistogram checks the latency bookkeeping: failures
// count searches and bytes but no latency, successes land in the log2
// bucket of their response time, and huge latencies clamp to the last
// bucket.
func TestRecorderSearchHistogram(t *testing.T) {
	r := NewRecorder(2)
	r.Search(100, false, 0, 500)
	r.Search(100, true, 0, 100)     // 0 ms → bucket 0
	r.Search(100, true, 3, 100)     // [2,4) → bucket 2
	r.Search(100, true, 1<<30, 100) // clamps to last bucket
	r.Search(100, true, -7, 100)    // negative latency clamps to bucket 0

	if got := r.get(1, CSearch); got != 5 {
		t.Errorf("searches = %d, want 5", got)
	}
	if got := r.get(1, CSearchOK); got != 4 {
		t.Errorf("successes = %d, want 4", got)
	}
	if r.srchB[1] != 900 {
		t.Errorf("search bytes = %d, want 900", r.srchB[1])
	}
	if r.latMS[1] != 3+(1<<30)-7 {
		t.Errorf("latency sum = %d, want %d", r.latMS[1], 3+(1<<30)-7)
	}
	if r.hist[0] != 2 || r.hist[2] != 1 || r.hist[HistBuckets-1] != 1 {
		t.Errorf("histogram %v: want 2 in bucket 0, 1 in bucket 2, 1 in last", r.hist)
	}
}

// TestSeriesShape checks the exported table: schema width, row count,
// warm-up placement, and that counter values land under their named
// column.
func TestSeriesShape(t *testing.T) {
	r := NewRecorder(2)
	r.Count(-10, CDrop)
	r.Count(500, CCacheHit)
	r.Count(1500, CConfirmNeg)
	load := metrics.NewLoadAccount(2)
	load.SetLive(0, 40)
	load.SetLive(1, 41)

	s := r.Series("asap-rw/crawled", load)
	if s.Key != "asap-rw/crawled" || s.Seconds != 2 {
		t.Fatalf("key %q seconds %d", s.Key, s.Seconds)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(s.Rows))
	}
	wantCols := 2 + metrics.NumMsgClasses + NumCounters + 2
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
		i := s.ColumnIndex(name)
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
	if s.ColumnIndex("no_such_column") != -1 {
		t.Error("ColumnIndex of unknown name != -1")
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
	r := NewRecorder(1)
	load := metrics.NewLoadAccount(1)
	s := r.Series("asap-rw/crawled/loss=0.02", load)
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

// TestTimingMergeAndStats: merged spans add, empty phases are omitted,
// and Stats reports phases in declaration order with millisecond totals.
func TestTimingMergeAndStats(t *testing.T) {
	var a, b Timing
	a.add(PReplay, 2_000_000) // 2 ms
	a.add(PReplay, 1_000_000)
	b.add(PAttach, 5_000_000)
	a.Merge(&b)
	a.Merge(nil)

	stats := a.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v, want 2 phases", stats)
	}
	if stats[0].Phase != "attach" || stats[0].Count != 1 || stats[0].TotalMS != 5 {
		t.Errorf("attach stat = %+v", stats[0])
	}
	if stats[1].Phase != "replay" || stats[1].Count != 2 || stats[1].TotalMS != 3 {
		t.Errorf("replay stat = %+v", stats[1])
	}
}

// TestPhaseLabels pins the report labels — they are part of the
// BENCH_matrix.json and series-consumer contract.
func TestPhaseLabels(t *testing.T) {
	want := []string{"topo_gen", "topo_clone", "attach", "replay",
		"search_phase1", "search_phase2", "deliver_flood", "deliver_walk"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want[p])
		}
	}
	if Phase(NumPhases).String() != "invalid" {
		t.Error("out-of-range phase label != invalid")
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
		_ = NewRecorder(4)
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
