// Command bench is the repo's benchmark: five workloads on one mid-scale
// preset, five end-to-end metrics on each, and a traced run that reports
// every layer's cost. See README.md beside this file; BENCHMARK.json at
// the repo root describes it to the driver.
//
//	sh bench/run.sh -workload replay-rw -seed 1            # end-to-end metrics
//	sh bench/run.sh -workload serve-mixed -seed 1 -trace 1 # per-layer metrics
//	sh bench/run.sh -quick                                 # build + correctness smoke
//	sh bench/run.sh -aa 10                                 # two alternating sets of 10 runs
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json repeats these
// tables; TestManifestMatchesTables keeps the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, identical on every
// workload. Bound is the share of the parent's median by which the metric
// may worsen before it counts as a regression. The four timings carry the
// widest bound allowed: on the reference host (two vCPUs sharing about one
// core's throughput, memory speed drifting by the minute) ten back-to-back
// runs of the same code spread by up to 23 % between their quartiles, and
// no estimator over the cycles of a run removes a drift that outlasts the
// run (README.md, "How steady it is"). live_heap_mb repeats exactly at a
// given seed; its bound is three times the 4 % by which seeds differ.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.12},
}

// perLayer lists the traced run's metrics, <module>.<metric>. A workload
// that never enters a layer reports 0 for it.
var perLayer = []metricSpec{
	{Name: "experiments.lab_build_s", Unit: "s", Better: "lower"},
	{Name: "netmodel.generate_s", Unit: "s", Better: "lower"},
	{Name: "content.generate_s", Unit: "s", Better: "lower"},
	{Name: "trace.build_s", Unit: "s", Better: "lower"},
	{Name: "sim.new_system_s", Unit: "s", Better: "lower"},
	{Name: "core.attach_s", Unit: "s", Better: "lower"},
	{Name: "core.tick_s", Unit: "s", Better: "lower"},
	{Name: "core.tick_calls", Unit: "count", Better: "lower"},
	{Name: "core.content_s", Unit: "s", Better: "lower"},
	{Name: "core.content_calls", Unit: "count", Better: "lower"},
	{Name: "core.join_s", Unit: "s", Better: "lower"},
	{Name: "core.join_calls", Unit: "count", Better: "lower"},
	{Name: "core.leave_s", Unit: "s", Better: "lower"},
	{Name: "core.leave_calls", Unit: "count", Better: "lower"},
	{Name: "core.search_s", Unit: "s", Better: "lower"},
	{Name: "core.search_calls", Unit: "count", Better: "lower"},
	{Name: "core.hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.phase2_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.searchro_ns", Unit: "ns", Better: "lower"},
	{Name: "bloom.matchblock_ns", Unit: "ns", Better: "lower"},
	{Name: "bloom.contains_probes_ns", Unit: "ns", Better: "lower"},
	{Name: "bloom.append_diff_ns", Unit: "ns", Better: "lower"},
	{Name: "search.search_s", Unit: "s", Better: "lower"},
	{Name: "search.search_calls", Unit: "count", Better: "lower"},
	{Name: "sim.state_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.batches", Unit: "count", Better: "lower"},
	{Name: "sim.finish_s", Unit: "s", Better: "lower"},
	{Name: "sim.shard_replay_s", Unit: "s", Better: "lower"},
	{Name: "sim.shard_speedup_x", Unit: "x", Better: "higher"},
	{Name: "sim.success_rate", Unit: "ratio", Better: "higher"},
	{Name: "sim.mean_search_bytes", Unit: "B", Better: "lower"},
	{Name: "sim.mean_resp_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.warmup_bytes", Unit: "B", Better: "lower"},
	{Name: "obs.recorder_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.gate_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.search_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.apply_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.apply_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.apply_calls", Unit: "count", Better: "lower"},
	{Name: "serve.stalled_read_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.read_p999_us", Unit: "us", Better: "lower"},
	{Name: "serve.bin_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.frame_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.query_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.reply_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.ad_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.cycles", Unit: "count", Better: "higher"},
	{Name: "bench.host_ref_ms", Unit: "ms", Better: "lower"},
}

// defaultSeconds is BENCHMARK.json's run_seconds: 18 s of cycles plus the
// cycle that crosses the line keeps every run under 25 s on the reference
// host.
const defaultSeconds = 18

// workload is one set of inputs the benchmark runs. cycle runs one
// complete pass; trs holds a tracer per caller for the traced cycle and is
// nil otherwise.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	replay bool // checked by summary equality across cycles
	bin    bool // sizes the span buffers
	cycle  func(e *env, trs []*tracer) (cycle, error)
}

func replayWorkload(scheme string) func(*env, []*tracer) (cycle, error) {
	return func(e *env, trs []*tracer) (cycle, error) {
		var tr *tracer
		if trs != nil {
			tr = trs[0]
		}
		return e.replayCycle(scheme, tr, false)
	}
}

func serveWorkload(bin bool) func(*env, []*tracer) (cycle, error) {
	return func(e *env, trs []*tracer) (cycle, error) {
		if trs == nil {
			return e.serveCycle(bin, nil, nil)
		}
		return e.serveCycle(bin, trs, e.probe(bin))
	}
}

var workloads = []workload{
	{Name: "replay-rw", replay: true, cycle: replayWorkload("asap-rw"),
		Why: "asap-rw sequential replay: walk delivery (ticks, content, joins) is ~2/3 of wall and two-phase search + Bloom slices the rest, so both halves of core show"},
	{Name: "replay-fld", replay: true, cycle: replayWorkload("asap-fld"),
		Why: "asap-fld on the same trace: flood delivery is ~95% of wall and search ~5%, so a search-kernel change predicts no move here and a delivery change moves it most"},
	{Name: "replay-base", replay: true, cycle: replayWorkload("flooding"),
		Why: "flooding baseline on the same trace: bypasses core and bloom entirely (search + overlay + sim accounting), the control for every core change"},
	{Name: "serve-mixed", cycle: serveWorkload(false),
		Why: "warm asap-rw node, P closed-loop in-process readers (Zipf mix) while reader 0 applies the trace's second half by count: read p99 is the apply stall"},
	{Name: "serve-bin", bin: true, cycle: serveWorkload(true),
		Why: "the same warm node, read-only, behind the binary endpoint on loopback TCP: frame codec, endpoint and socket are ~half of a read; no writer, so p99 is the read path's own tail"},
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// host is the fingerprint every record carries: numbers from different
// hosts, core counts or toolchains are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	P          int    `json:"p"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// commit is set by run.sh through the linker.
var commit = "unknown"

func fingerprint(p int) host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: p, Go: runtime.Version(), Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// result is one run of one workload.
type result struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Preset   string                `json:"preset"`
	Host     host                  `json:"host"`
	Cycles   []cycle               `json:"cycles"` // untraced
	EndToEnd map[string]dist       `json:"end_to_end"`
	Traced   *cycle                `json:"traced_cycle,omitempty"`
	Layers   map[string]float64    `json:"per_layer,omitempty"`
	Spans    map[string]*layerTime `json:"spans,omitempty"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
}

// cycles runs untraced cycles of w until budget has elapsed, at least
// atLeast of them, and folds them into res.
func (res *result) cycles(e *env, w *workload, budget time.Duration, atLeast int) error {
	start := time.Now()
	for len(res.Cycles) < atLeast || time.Since(start) < budget {
		c, err := w.cycle(e, nil)
		if err != nil {
			return err
		}
		if w.replay && len(res.Cycles) > 0 && !sameSummary(res.Cycles[0].summary, c.summary) {
			logf("%s: cycle %d's summary differs from cycle 1's", w.Name, len(res.Cycles)+1)
			c.Failed = c.Ops
		}
		res.Cycles = append(res.Cycles, c)
		res.Attempted += c.Ops
		res.Failed += c.Failed
	}
	pick := func(f func(*cycle) float64) dist {
		vals := make([]float64, len(res.Cycles))
		for i := range res.Cycles {
			vals[i] = f(&res.Cycles[i])
		}
		return overCycles(vals)
	}
	res.EndToEnd = map[string]dist{
		"setup_s":      pick(func(c *cycle) float64 { return c.SetupS }),
		"ops_per_s":    pick(func(c *cycle) float64 { return c.OpsPerS }),
		"read_p50_us":  pick(func(c *cycle) float64 { return c.P50US }),
		"read_p99_us":  pick(func(c *cycle) float64 { return c.P99US }),
		"live_heap_mb": pick(func(c *cycle) float64 { return c.HeapMB }),
		"host_ref_ms":  pick(func(c *cycle) float64 { return c.HostRefMS }),
	}
	return nil
}

// trace runs one more cycle of w with spans recorded, then the per-layer
// loops, and fills res.Layers. End-to-end metrics never come from here.
func (res *result) trace(e *env, w *workload, outDir string) error {
	spansPerCaller := 4*e.scale.Trace.NumQueries + 4096
	if !w.replay {
		spansPerCaller = 3*e.readsPerCaller(w.bin) + 4096
	}
	origin := time.Now()
	trs := make([]*tracer, e.procs)
	for g := range trs {
		trs[g] = newTracer(origin, spansPerCaller)
	}
	c, err := w.cycle(e, trs)
	if err != nil {
		return err
	}
	res.Traced = &c
	res.Attempted += c.Ops
	res.Failed += c.Failed
	m := c.layers

	res.Spans = map[string]*layerTime{}
	for g, t := range trs {
		lt, err := selfTimes(t.spans)
		if err != nil {
			return fmt.Errorf("caller %d: %w", g, err)
		}
		for name, v := range lt {
			sum := res.Spans[name]
			if sum == nil {
				sum = &layerTime{}
				res.Spans[name] = sum
			}
			sum.Calls += v.Calls
			sum.TotalS += v.TotalS
			sum.SelfS += v.SelfS
		}
	}
	spanLayers(res.Spans, m)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.csv", w.Name, e.seed)), trs); err != nil {
		return err
	}

	untraced := res.EndToEnd["ops_per_s"].Median
	m["bench.trace_overhead_frac"] = 1 - c.OpsPerS/untraced
	m["bench.timer_ns"] = e.timerNS
	m["bench.cycles"] = float64(len(res.Cycles))
	m["bench.host_ref_ms"] = res.EndToEnd["host_ref_ms"].Median
	if err := e.generatorLayers(m); err != nil {
		return err
	}
	if err := e.kernelLayers(m); err != nil {
		return err
	}
	if w.replay {
		if !sameSummary(res.Cycles[0].summary, c.summary) {
			logf("%s: the traced cycle's summary differs from cycle 1's", w.Name)
			res.Failed += c.Ops
		}
		s := c.summary
		m["sim.success_rate"] = s.SuccessRate
		m["sim.mean_search_bytes"] = s.MeanSearchBytes
		m["sim.mean_resp_ms"] = s.MeanRespMS
		m["sim.warmup_bytes"] = float64(s.WarmupBytes)
		if m["core.search_calls"] > 0 {
			// Phase 2 ran for every search that did not end in a one-hop hit.
			m["core.hit_frac"] = s.SuccessRate
			m["core.phase2_frac"] = 1 - s.SuccessRate*s.OneHopRate
		}
	} else {
		applyLayers(trs, &c)
	}
	if w.Name == "replay-rw" {
		if err := res.replayRWExtras(e, m); err != nil {
			return err
		}
	}
	for _, s := range perLayer {
		if _, ok := m[s.Name]; !ok {
			m[s.Name] = 0 // the workload never enters this layer
		}
	}
	res.Layers = m
	return nil
}

// replayRWExtras runs one asap-rw cycle with a recorder attached and one
// through the sharded engine; both must reproduce the sequential summary.
func (res *result) replayRWExtras(e *env, m map[string]float64) error {
	first, untraced := &res.Cycles[0], res.EndToEnd["ops_per_s"].Median
	rc, err := e.replayCycle("asap-rw", nil, true)
	if err != nil {
		return err
	}
	m["obs.recorder_overhead_frac"] = 1 - rc.OpsPerS/untraced
	wall, sum, err := e.shardedReplay()
	if err != nil {
		return err
	}
	m["sim.shard_replay_s"] = wall
	m["sim.shard_speedup_x"] = float64(first.Ops) / untraced / wall
	res.Attempted += 2 * first.Ops
	if !sameSummary(first.summary, rc.summary) || !sameSummary(first.summary, sum) {
		logf("replay-rw: the recorder or the sharded cycle's summary differs from cycle 1's")
		res.Failed += 2 * first.Ops
	}
	return nil
}

// line is the result line the driver parses: the last line of stdout.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricLine `json:"metrics"`
}

type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) line(traced bool) line {
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricLine{}}
	if traced {
		for _, s := range perLayer {
			l.Metrics[s.Name] = metricLine{res.Layers[s.Name], s.Unit}
		}
		return l
	}
	for _, s := range endToEnd {
		l.Metrics[s.Name] = metricLine{res.EndToEnd[s.Name].Median, s.Unit}
	}
	return l
}

// report prints the human-readable record to stderr.
func (res *result) report() {
	h := res.Host
	logf("%s seed=%d preset=%s | %s, %d cpu, GOMAXPROCS=%d, P=%d, %s, commit %s",
		res.Workload, res.Seed, res.Preset, h.CPU, h.NumCPU, h.GOMAXPROCS, h.P, h.Go, h.Commit)
	logf("  closed loop; ops attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	for _, s := range append(endToEnd, metricSpec{Name: "host_ref_ms", Unit: "ms"}) {
		d := res.EndToEnd[s.Name]
		logf("  %-14s %12.4f %-4s (min %.4f, max %.4f, %d cycles)", s.Name, d.Median, s.Unit, d.Min, d.Max, d.N)
	}
	if res.Layers == nil {
		return
	}
	for _, s := range perLayer {
		logf("  %-28s %14.4f %s", s.Name, res.Layers[s.Name], s.Unit)
	}
}

// run measures one workload and prints its result line.
func run(w *workload, seed uint64, procs int, quick, traced bool, seconds float64, outDir string) (bool, error) {
	e := newEnv(seed, procs, quick)
	res := &result{Workload: w.Name, Seed: seed, Preset: e.scale.Name, Host: fingerprint(procs)}
	budget, atLeast := time.Duration(seconds*float64(time.Second)), 3
	if traced {
		budget /= 2 // the traced cycle and the per-layer loops take the other half
	}
	if quick {
		budget, atLeast = 0, 1
	}
	if err := res.cycles(e, w, budget, atLeast); err != nil {
		return false, err
	}
	if traced {
		if err := res.trace(e, w, outDir); err != nil {
			return false, err
		}
	}
	res.Correct = res.Failed == 0
	res.report()
	if !quick {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return false, err
		}
		rec, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return false, err
		}
		name := fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, seed, btoi(traced))
		if err := os.WriteFile(filepath.Join(outDir, name), rec, 0o644); err != nil {
			return false, err
		}
	}
	out, err := json.Marshal(res.line(traced))
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.Correct, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five, one result line each)")
	seed := flag.Uint64("seed", 1, "seed of the lab (network, content, trace) and of the query mix")
	seconds := flag.Float64("seconds", defaultSeconds, "wall budget of the cycle loop; a run ends with the cycle that crosses it")
	trace := flag.Int("trace", 0, "1: add a traced cycle and report the per-layer metrics instead")
	procs := flag.Int("procs", 0, "GOMAXPROCS for this run (0: leave); P = min(GOMAXPROCS, 4). Pass the same value to both sides of a comparison")
	quick := flag.Bool("quick", false, "tiny preset, one cycle plus the traced cycle per workload, nothing recorded: a build and correctness smoke")
	aa := flag.Int("aa", 0, "run two alternating sets of this many runs of every workload (seeds 1..n) and check them against the bounds")
	outDir := flag.String("out", "bench/out", "directory for run records and span files")
	flag.Parse()

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	p := min(runtime.GOMAXPROCS(0), 4)
	if *aa > 0 {
		if err := runAA(*aa, *seconds, *procs); err != nil {
			logf("bench: %v", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	found := false
	for i := range workloads {
		w := &workloads[i]
		if *name != "" && *name != w.Name {
			continue
		}
		found = true
		correct, err := run(w, *seed, p, *quick, *trace == 1 || *quick, *seconds, *outDir)
		if err != nil {
			logf("bench: %s: %v", w.Name, err)
			os.Exit(1)
		}
		ok = ok && correct
	}
	if !found {
		logf("bench: unknown workload %q", *name)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}
