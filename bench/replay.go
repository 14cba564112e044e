package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"time"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// env is what every cycle of a run shares: the preset, the seed, the
// caller count and the benchmark's own preallocated buffers.
type env struct {
	scale experiments.Scale
	seed  uint64
	procs int // P: load-generating goroutines
	quick bool

	timerNS float64 // cost of the time.Now/Since pair around every read

	lat   [][]int32 // per-caller read latencies in ns, reused every cycle
	mix   [][]int32 // per-caller Zipf query mix, filled by the first serve cycle
	table []uint64  // hostRef's working set
}

// midScale is the benchmark's one recorded preset: the paper's physical
// network with a fifth of its content and trace (2,200 peers, 6,000
// queries). `small` replays in 0.2 s — too short to time — and `full`
// takes 39 s and 1.5 GB per replay.
func midScale(seed uint64) experiments.Scale {
	s := experiments.ScaleFull()
	s.Name = "mid"
	s.Content = s.Content.Scaled(0.2)
	s.Trace = s.Trace.Scaled(0.2)
	s.Factor = 0.2
	s.RefreshPeriodSec = 60
	s.Seed = seed
	return s
}

func newEnv(seed uint64, procs int, quick bool) *env {
	e := &env{seed: seed, procs: procs, quick: quick, scale: midScale(seed), timerNS: timerCost(), table: make([]uint64, 1<<19)}
	if quick {
		e.scale = experiments.ScaleTiny()
		e.scale.Seed = seed
	}
	// Sized for the longest read sequence any workload issues.
	n := max(e.scale.Trace.NumQueries, e.readsPerCaller(true))
	e.lat = make([][]int32, procs)
	e.mix = make([][]int32, procs)
	for g := range e.lat {
		e.lat[g] = make([]int32, 0, n)
		e.mix[g] = make([]int32, 0, n)
	}
	return e
}

// cycle is one complete build → warm → measure pass and the metrics
// computed from it alone.
type cycle struct {
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"measured_wall_s"`
	Ops       int     `json:"ops"`
	Failed    int     `json:"failed"`
	OpsPerS   float64 `json:"ops_per_s"`
	P50US     float64 `json:"read_p50_us"`
	P99US     float64 `json:"read_p99_us"`
	P999US    float64 `json:"read_p999_us"`
	HeapMB    float64 `json:"live_heap_mb"`
	HostRefMS float64 `json:"host_ref_ms"`

	summary *metrics.Summary   // replay workloads
	layers  map[string]float64 // traced cycle only
}

func ns32(d time.Duration) int32 { return int32(min(d, math.MaxInt32)) }

// liveHeap returns HeapAlloc after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// finish computes a cycle's latency percentiles and throughput from the
// callers' merged samples.
func (c *cycle) finish(lat [][]int32) {
	all := lat[0]
	if len(lat) > 1 {
		all = slices.Concat(lat...)
	}
	slices.Sort(all)
	c.P50US = float64(percentile(all, 50, 100)) / 1e3
	c.P99US = float64(percentile(all, 99, 100)) / 1e3
	c.P999US = float64(percentile(all, 999, 1000)) / 1e3
	c.OpsPerS = float64(c.Ops) / c.WallS
}

func (e *env) newLab(tr *tracer) (*experiments.Lab, error) {
	id := tr.begin("experiments.new_lab", -1)
	lab, err := experiments.NewLab(e.scale)
	tr.end(id)
	return lab, err
}

// newSystem builds the crawled-topology replay state for lab.
func (e *env) newSystem(lab *experiments.Lab, tr *tracer) *sim.System {
	id := tr.begin("sim.new_system", -1)
	sys := sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, e.seed)
	tr.end(id)
	return sys
}

// tracedASAP times every call the replay makes into the ASAP scheme. It
// embeds the concrete scheme so the optional extensions the stepper looks
// for (ContentBatcher, GracefulLeaver) and the sharding ones still
// resolve, and the replay takes the same path with and without it.
type tracedASAP struct {
	*core.Scheme
	tr *tracer
	op int
}

func (d *tracedASAP) Attach(sys *sim.System) {
	id := d.tr.begin("core.attach", -1)
	d.Scheme.Attach(sys)
	d.tr.end(id)
}

func (d *tracedASAP) Search(ev *trace.Event) metrics.SearchResult {
	id := d.tr.begin("core.search", d.op)
	d.op++
	r := d.Scheme.Search(ev)
	d.tr.end(id)
	return r
}

func (d *tracedASAP) ContentChanged(t sim.Clock, n overlay.NodeID, doc content.DocID, added bool) {
	id := d.tr.begin("core.content", -1)
	d.Scheme.ContentChanged(t, n, doc, added)
	d.tr.end(id)
}

func (d *tracedASAP) ContentChangedBatch(t sim.Clock, n overlay.NodeID, docs []content.DocID, added []bool) {
	id := d.tr.begin("core.content", -1)
	d.Scheme.ContentChangedBatch(t, n, docs, added)
	d.tr.end(id)
}

func (d *tracedASAP) NodeJoined(t sim.Clock, n overlay.NodeID) {
	id := d.tr.begin("core.join", -1)
	d.Scheme.NodeJoined(t, n)
	d.tr.end(id)
}

func (d *tracedASAP) NodeLeaving(t sim.Clock, n overlay.NodeID) {
	id := d.tr.begin("core.leaving", -1)
	d.Scheme.NodeLeaving(t, n)
	d.tr.end(id)
}

func (d *tracedASAP) NodeLeft(t sim.Clock, n overlay.NodeID) {
	id := d.tr.begin("core.leave", -1)
	d.Scheme.NodeLeft(t, n)
	d.tr.end(id)
}

func (d *tracedASAP) Tick(t sim.Clock) {
	id := d.tr.begin("core.tick", -1)
	d.Scheme.Tick(t)
	d.tr.end(id)
}

// tracedBase times a baseline's searches; its state callbacks are no-ops.
type tracedBase struct {
	sim.Scheme
	tr *tracer
	op int
}

func (d *tracedBase) Search(ev *trace.Event) metrics.SearchResult {
	id := d.tr.begin("search.search", d.op)
	d.op++
	r := d.Scheme.Search(ev)
	d.tr.end(id)
	return r
}

// traced wraps sch in the decorator for its kind; a nil tracer leaves it
// bare.
func traced(sch sim.Scheme, tr *tracer) sim.Scheme {
	if tr == nil {
		return sch
	}
	if cs, ok := sch.(*core.Scheme); ok {
		return &tracedASAP{Scheme: cs, tr: tr}
	}
	return &tracedBase{Scheme: sch, tr: tr}
}

// replayCycle builds the lab, the system and the named scheme, attaches
// it, and replays the whole trace through the sequential stepper, timing
// every search. A read is one Scheme.Search; a write is one state event or
// one per-second tick, applied inside NextBatch and Finish. withRecorder
// attaches an obs.Recorder to the system, for the recorder-overhead cycle.
func (e *env) replayCycle(scheme string, tr *tracer, withRecorder bool) (cycle, error) {
	base := liveHeap()
	c := cycle{HostRefMS: hostRef(e.table)}

	t0 := time.Now()
	setup := tr.begin("bench.setup", -1)
	lab, err := e.newLab(tr)
	if err != nil {
		return c, err
	}
	sys := e.newSystem(lab, tr)
	if withRecorder {
		sys.SetObs(obs.NewRecorder(sys.Load.Seconds()))
	}
	sch, err := lab.NewScheme(scheme)
	if err != nil {
		return c, err
	}
	sch = traced(sch, tr)
	id := tr.begin("sim.new_stepper", -1)
	st := sim.NewStepper(sys, sch, 0)
	tr.end(id)
	tr.end(setup)
	c.SetupS = time.Since(t0).Seconds()

	runtime.GC()
	var before runtimeSnap
	if tr != nil {
		before = snapRuntime()
	}
	lat := e.lat[0][:0]
	batches := 0
	start := time.Now()
	root := tr.begin("bench.measure", -1)
	for {
		id := tr.begin("sim.next_batch", -1)
		batch := st.NextBatch()
		tr.end(id)
		if batch == nil {
			break
		}
		batches++
		for _, ev := range batch {
			t := time.Now()
			r := sch.Search(ev)
			lat = append(lat, ns32(time.Since(t)))
			st.Record(ev, r)
		}
	}
	id = tr.begin("sim.finish", -1)
	sum := st.Finish()
	tr.end(id)
	tr.end(root)
	c.WallS = time.Since(start).Seconds()
	e.lat[0] = lat
	// Every event is either a read or a state write; each second of the
	// load horizon fires one tick.
	c.Ops = len(lab.Tr.Events) + sys.Load.Seconds()
	if tr != nil {
		c.layers = before.since(c.Ops)
		c.layers["sim.batches"] = float64(batches)
	}
	c.summary = &sum
	if sum.Requests != len(lat) {
		return c, fmt.Errorf("%s: summary counts %d requests, %d searches were timed", scheme, sum.Requests, len(lat))
	}
	c.finish(e.lat[:1])
	c.HeapMB = float64(liveHeap()-base) / (1 << 20)
	runtime.KeepAlive(lab)
	runtime.KeepAlive(st)
	return c, nil
}

// sameSummary is the replay workloads' correctness check: the simulated
// statistics are a pure function of (preset, seed, scheme), so every cycle
// must reproduce the first one's summary exactly.
func sameSummary(first, s *metrics.Summary) bool {
	return reflect.DeepEqual(first, s)
}

// attachTimer notes when Attach returned, so a sim.Run's replay phase can
// be timed from outside. It embeds the concrete scheme to keep
// SearchSharder resolving.
type attachTimer struct {
	*core.Scheme
	attached time.Time
}

func (a *attachTimer) Attach(sys *sim.System) {
	a.Scheme.Attach(sys)
	a.attached = time.Now()
}

// shardedReplay runs one asap-rw cycle through sim.Run with Shards = P and
// returns the replay phase's wall seconds and the run's summary.
func (e *env) shardedReplay() (float64, *metrics.Summary, error) {
	lab, err := e.newLab(nil)
	if err != nil {
		return 0, nil, err
	}
	sys := e.newSystem(lab, nil)
	sch, err := lab.NewScheme("asap-rw")
	if err != nil {
		return 0, nil, err
	}
	at := &attachTimer{Scheme: sch.(*core.Scheme)}
	sum := sim.Run(sys, at, sim.RunOptions{Shards: e.procs})
	return time.Since(at.attached).Seconds(), &sum, nil
}
