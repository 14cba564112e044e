package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"asap/internal/content"
	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int32, 6000)
	for i := range s {
		s[i] = int32(i + 1)
	}
	for _, tc := range []struct {
		num, den int
		want     int32
	}{{50, 100, 3000}, {99, 100, 5940}, {999, 1000, 5994}, {100, 100, 6000}, {0, 100, 1}} {
		if got := percentile(s, tc.num, tc.den); got != tc.want {
			t.Errorf("percentile(%d/%d) = %d, want %d", tc.num, tc.den, got, tc.want)
		}
	}
	if above := len(s) - int(percentile(s, 99, 100)); above != 60 {
		t.Errorf("p99 of 6000 samples leaves %d above it, want 60", above)
	}
	if got := percentile([]int32{7}, 99, 100); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile(nil, 50, 100); got != 0 {
		t.Errorf("no samples: got %d", got)
	}
}

func TestOverCycles(t *testing.T) {
	if got, want := overCycles([]float64{5, 1, 9}), (dist{Median: 5, Min: 1, Max: 9, N: 3}); got != want {
		t.Errorf("odd count: got %+v, want %+v", got, want)
	}
	if got, want := overCycles([]float64{4, 1, 9, 2}), (dist{Median: 3, Min: 1, Max: 9, N: 4}); got != want {
		t.Errorf("even count: got %+v, want %+v", got, want)
	}
	if got := overCycles(nil); got != (dist{}) {
		t.Errorf("empty: got %+v", got)
	}
}

// The expected values are Python's statistics.quantiles(vals, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(ten); got != 1 {
		t.Errorf("1..10: spread %v, want 1", got)
	}
	three := []float64{10, 30, 20} // quartiles 10, 20, 30
	if got := quartileSpread(three); got != 1 {
		t.Errorf("three values: spread %v, want 1", got)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("one value: spread %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] ⊃ a [10,40] ⊃ b [20,30]; root ⊃ a [50,90].
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 20, end: 30, parent: 1},
		{name: "a", start: 50, end: 90, parent: 0},
	}
	lt, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]layerTime{
		"root": {Calls: 1, TotalS: 100e-9, SelfS: 30e-9},
		"a":    {Calls: 2, TotalS: 70e-9, SelfS: 60e-9},
		"b":    {Calls: 1, TotalS: 10e-9, SelfS: 10e-9},
	}
	selfSum := 0.0
	for name, w := range want {
		g := lt[name]
		if g == nil || g.Calls != w.Calls || !near(g.TotalS, w.TotalS) || !near(g.SelfS, w.SelfS) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
		selfSum += g.SelfS
	}
	if !near(selfSum, lt["root"].TotalS) {
		t.Errorf("self times sum to %v, the root lasted %v", selfSum, lt["root"].TotalS)
	}

	escaped := slices.Clone(spans)
	escaped[2].end = 45 // b outlives its parent a
	if _, err := selfTimes(escaped); err == nil || !strings.Contains(err.Error(), "not inside its parent") {
		t.Errorf("a child outside its parent was accepted: %v", err)
	}
	overlap := slices.Clone(spans)
	overlap[3].start = 35 // the second a starts before the first has ended
	if _, err := selfTimes(overlap); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("overlapping siblings were accepted: %v", err)
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }

func TestTracerNests(t *testing.T) {
	tr := newTracer(time.Now(), 8)
	root := tr.begin("root", -1)
	a := tr.begin("a", 3)
	tr.end(a)
	tr.end(root)
	if tr.spans[a].parent != root || tr.spans[root].parent != -1 || tr.spans[a].op != 3 {
		t.Errorf("spans %+v", tr.spans)
	}
	if _, err := selfTimes(tr.spans); err != nil {
		t.Error(err)
	}
	var off *tracer
	off.end(off.begin("ignored", -1)) // a nil tracer is the untraced run
}

// Every write is applied exactly once, none before its share of the reads
// has completed, and all are consumed when the last read returns.
func TestWritesDueAppliesEachWriteOnce(t *testing.T) {
	for _, tc := range [][2]int{{15000, 885}, {1500, 171}, {100, 100}, {10, 25}, {7, 0}, {1, 3}} {
		reads, writes := tc[0], tc[1]
		applied := make([]int, writes)
		next := 0
		for done := 1; done <= reads; done++ {
			due := writesDue(done, reads, writes)
			if due < next || due > writes {
				t.Fatalf("reads=%d writes=%d: due went from %d to %d", reads, writes, next, due)
			}
			if ahead := int64(due) * int64(reads); ahead > int64(done)*int64(writes) {
				t.Fatalf("reads=%d writes=%d: %d writes due after only %d reads", reads, writes, due, done)
			}
			for ; next < due; next++ {
				applied[next]++
			}
		}
		for i, n := range applied {
			if n != 1 {
				t.Fatalf("reads=%d writes=%d: write %d applied %d times", reads, writes, i, n)
			}
		}
	}
}

func TestZipfMixIsSeededAndSkewed(t *testing.T) {
	a := zipfMix(nil, 1000, 20000, 7, 0)
	if !slices.Equal(a, zipfMix(nil, 1000, 20000, 7, 0)) {
		t.Error("same seed and reader gave different mixes")
	}
	if slices.Equal(a, zipfMix(nil, 1000, 20000, 7, 1)) || slices.Equal(a, zipfMix(nil, 1000, 20000, 8, 0)) {
		t.Error("another reader or seed gave the same mix")
	}
	count := make([]int, 1000)
	for _, i := range a {
		count[i]++
	}
	// Rank 1 carries 1/H(1000) ≈ 13 % of the draws, rank 10 a tenth of that.
	if count[0] < 2200 || count[0] > 3100 || count[9] < 150 || count[9] > 400 {
		t.Errorf("rank 1 drawn %d times, rank 10 %d times of 20000", count[0], count[9])
	}
}

// logScheme records the state callbacks it receives.
type logScheme struct{ log []string }

func (s *logScheme) Name() string                             { return "log" }
func (s *logScheme) Attach(*sim.System)                       {}
func (s *logScheme) Search(*trace.Event) metrics.SearchResult { return metrics.SearchResult{} }
func (s *logScheme) LoadMask() metrics.ClassMask              { return metrics.BaselineLoadMask }
func (s *logScheme) Tick(t sim.Clock)                         { s.log = append(s.log, fmt.Sprint("tick ", t)) }
func (s *logScheme) NodeJoined(t sim.Clock, n overlay.NodeID) {
	s.log = append(s.log, fmt.Sprint("join ", t, n))
}
func (s *logScheme) NodeLeft(t sim.Clock, n overlay.NodeID) {
	s.log = append(s.log, fmt.Sprint("leave ", t, n))
}
func (s *logScheme) ContentChanged(t sim.Clock, n overlay.NodeID, d content.DocID, added bool) {
	s.log = append(s.log, fmt.Sprint("content ", t, n, d, added))
}

// The serve workloads replay half the trace through the stepper and apply
// the rest as a write list; together the two must make exactly the state
// changes, in the order, that a whole-trace replay makes.
func TestWarmHalfPlusWritesEqualsFullReplay(t *testing.T) {
	sc := experiments.ScaleTiny()
	lab, err := experiments.NewLab(sc)
	if err != nil {
		t.Fatal(err)
	}
	newSys := func() *sim.System {
		return sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, sc.Seed)
	}

	full := &logScheme{}
	st := sim.NewStepper(newSys(), full, 0)
	for b := st.NextBatch(); b != nil; b = st.NextBatch() {
	}
	st.Finish()

	split := &logScheme{}
	sys := newSys()
	st = sim.NewStepper(sys, split, 0)
	cut := warmHalf(st, split, lab.Tr)
	if q := lab.Tr.Stats().Queries; countQueries(lab.Tr.Events[:cut]) < q/2 || cut >= len(lab.Tr.Events) {
		t.Fatalf("cut at event %d of %d leaves no second half", cut, len(lab.Tr.Events))
	}
	writes := writesFrom(lab.Tr, cut, st.Now(), sys.Load.Seconds())
	for _, w := range writes {
		if w.ev == nil {
			split.Tick(w.tickMS)
		} else {
			sim.ApplyStateEvent(sys, split, w.ev)
		}
	}
	if !reflect.DeepEqual(full.log, split.log) {
		t.Errorf("split replay made %d state changes, whole replay %d, or their order differs", len(split.log), len(full.log))
	}
	if len(catalogFrom(lab.Tr, cut, sys)) == 0 {
		t.Error("no query template survives to the end of the trace")
	}
}

func countQueries(evs []trace.Event) int {
	n := 0
	for i := range evs {
		if evs[i].Kind == trace.Query {
			n++
		}
	}
	return n
}

// BENCHMARK.json is what the driver reads; the tables in main.go are what
// the program prints. They must name the same things.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n manifest %+v\n tables   %+v", man.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest names %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m := man.Workloads[i]; m.Name != w.Name || m.Why != w.Why {
			t.Errorf("workload %d: manifest %q / %q, program %q / %q", i, m.Name, m.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", w.Name, len(w.Why))
		}
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", man.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(man.Paths, []string{"bench"}) || !reflect.DeepEqual(man.Command, []string{"sh", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", man.Command, man.Paths)
	}
}

// Every workload, untraced and traced, on the tiny preset: the program's
// own correctness checks must pass and every listed metric must be
// reported.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five tiny workloads")
	}
	for i := range workloads {
		w := &workloads[i]
		e := newEnv(1, 2, true)
		res := &result{Workload: w.Name}
		if err := res.cycles(e, w, 0, 1); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := res.trace(e, w, t.TempDir()); err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
		}
		for _, s := range endToEnd {
			if res.EndToEnd[s.Name].Median <= 0 {
				t.Errorf("%s: %s = %v", w.Name, s.Name, res.EndToEnd[s.Name].Median)
			}
		}
		if len(res.Layers) != len(perLayer) {
			t.Errorf("%s: traced run reported %d layer metrics, the table lists %d", w.Name, len(res.Layers), len(perLayer))
		}
		for _, s := range perLayer {
			if _, ok := res.Layers[s.Name]; !ok {
				t.Errorf("%s: traced run did not report %s", w.Name, s.Name)
			}
		}
	}
}
