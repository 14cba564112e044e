package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/search"
	"asap/internal/sim"
	"asap/internal/trace"
)

// SchemeNames lists the six schemes of the comparison figures, in the
// paper's order.
var SchemeNames = []string{"flooding", "random-walk", "gsa", "asap-fld", "asap-rw", "asap-gsa"}

// Lab owns the shared inputs of one scale preset: generating the physical
// network, the content universe and the trace is expensive, so one Lab is
// reused across all scheme × topology runs. Runs themselves are
// independent — each operates on its own system over a private clone of
// the lab's per-topology overlay prototype — which is what lets RunMatrix
// fan them across a worker pool.
type Lab struct {
	Scale Scale
	Net   *netmodel.Network
	U     *content.Universe
	Tr    *trace.Trace

	// Per-kind topology prototypes: each topology is generated once per
	// Lab and cheaply cloned per run (generation dominates per-run setup
	// cost). Guarded so concurrent RunMatrix workers can share the cache.
	topoMu sync.Mutex
	topos  map[overlay.Kind]*sim.TopoProto
}

// NewLab builds the shared inputs for a scale preset.
func NewLab(sc Scale) (*Lab, error) {
	sc.Net.Seed = sc.Seed
	sc.Content.Seed = sc.Seed
	sc.Trace.Seed = sc.Seed
	net := netmodel.Generate(sc.Net)
	u := content.Generate(sc.Content)
	tr, err := trace.Build(u, sc.Trace)
	if err != nil {
		return nil, fmt.Errorf("experiments: building trace: %w", err)
	}
	return &Lab{Scale: sc, Net: net, U: u, Tr: tr}, nil
}

// NewScheme constructs a named scheme configured for this lab's scale.
func (l *Lab) NewScheme(name string) (sim.Scheme, error) {
	switch name {
	case "flooding":
		return search.NewFlooding(), nil
	case "random-walk":
		return search.NewRandomWalk(l.Scale.Seed), nil
	case "gsa":
		return search.NewGSA(l.Scale.Seed), nil
	case "asap-fld":
		return core.New(l.Scale.ASAPConfig(core.FLD)), nil
	case "asap-rw":
		return core.New(l.Scale.ASAPConfig(core.RW)), nil
	case "asap-gsa":
		return core.New(l.Scale.ASAPConfig(core.GSAKind)), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// topoProto returns the lab's shared prototype for kind, generating it on
// first use. Safe for concurrent callers.
func (l *Lab) topoProto(kind overlay.Kind) *sim.TopoProto {
	l.topoMu.Lock()
	defer l.topoMu.Unlock()
	if l.topos == nil {
		l.topos = make(map[overlay.Kind]*sim.TopoProto, len(overlay.Kinds))
	}
	p, ok := l.topos[kind]
	if !ok {
		p = sim.NewTopoProto(kind, l.Net, len(l.Tr.Peers), l.Tr.InitialLive, l.Scale.Seed)
		l.topos[kind] = p
	}
	return p
}

// Run replays the lab's trace under one scheme on one topology — the
// single-run entry point, and exactly what one RunMatrix cell executes.
func (l *Lab) Run(schemeName string, topo overlay.Kind) (metrics.Summary, error) {
	return l.run(schemeName, topo, false, nil, nil)
}

// RunObs is Run that also collects the run's per-second series into series
// (keyed "scheme/topology"). A nil series is plain Run.
func (l *Lab) RunObs(schemeName string, topo overlay.Kind, series *obs.Collector) (metrics.Summary, error) {
	return l.run(schemeName, topo, false, series, nil)
}

// run builds the system — from the cached prototype, or from scratch when
// fresh is set — and replays the trace under the scheme. The two system
// paths are bit-for-bit equivalent (see TestMatrixClonedMatchesFresh);
// fresh is that test's reference.
func (l *Lab) run(schemeName string, topo overlay.Kind, fresh bool, series *obs.Collector, heap *obs.HeapGauge) (metrics.Summary, error) {
	sch, err := l.NewScheme(schemeName)
	if err != nil {
		return metrics.Summary{}, err
	}
	var rec *obs.Recorder
	if heap != nil {
		rec = obs.NewRecorder(0)
		rec.SetHeapGauge(heap)
	}
	var sys *sim.System
	if fresh {
		sys = sim.NewSystem(l.U, l.Tr, topo, l.Net, l.Scale.Seed)
	} else {
		sys = l.topoProto(topo).NewSystem(l.U, l.Tr)
	}
	sys.SetObs(rec)
	if l.Scale.LossRate > 0 {
		sys.SetFaults(faults.New(faults.Config{Seed: l.Scale.Seed, LossRate: l.Scale.LossRate}))
	}
	sum := sim.Run(sys, sch, sim.RunOptions{})
	if series != nil {
		series.Add(obs.Series(schemeName+"/"+topo.String(), sys.Load))
	}
	return sum, nil
}

// Matrix holds one Summary per scheme × topology.
type Matrix map[string]map[overlay.Kind]metrics.Summary

// MatrixOptions tunes RunMatrixOpt.
type MatrixOptions struct {
	// Workers bounds the scheme×topology fan-out; 0 means GOMAXPROCS.
	Workers int
	// FreshGraphs regenerates the overlay for every run instead of
	// cloning the lab's per-kind prototype: the independent reference
	// TestMatrixClonedMatchesFresh checks the clone path against.
	FreshGraphs bool
	// Series, when non-nil, collects each cell's per-second observability
	// series (keyed "scheme/topology"). Collection is deterministic: the
	// merged set is identical for every Workers value.
	Series *obs.Collector
	// Heap, when non-nil, tracks the peak live-heap high-water mark across
	// all cells (sampled once per simulated second; reporting only, never
	// part of the deterministic Matrix).
	Heap *obs.HeapGauge
}

// RunMatrix runs every given scheme on every given topology across a
// worker pool of Scale.MatrixWorkers (0 = GOMAXPROCS). Nil slices select
// the full paper matrix. Progress, if non-nil, is invoked before each run
// and is never called concurrently.
//
// Parallelism lives at the cell level only: each cell is one sequential
// replay on its own system. Cells are independent, so the returned Matrix
// is identical for every worker count (TestRunMatrixParallelDeterminism).
func (l *Lab) RunMatrix(schemes []string, topos []overlay.Kind, progress func(scheme string, topo overlay.Kind)) (Matrix, error) {
	return l.RunMatrixOpt(schemes, topos, progress, MatrixOptions{Workers: l.Scale.MatrixWorkers})
}

// RunMatrixOpt is RunMatrix with explicit execution options.
func (l *Lab) RunMatrixOpt(schemes []string, topos []overlay.Kind, progress func(scheme string, topo overlay.Kind), opt MatrixOptions) (Matrix, error) {
	if schemes == nil {
		schemes = SchemeNames
	}
	if topos == nil {
		topos = overlay.Kinds
	}
	type cell struct {
		scheme string
		topo   overlay.Kind
	}
	jobs := make([]cell, 0, len(schemes)*len(topos))
	for _, s := range schemes {
		for _, k := range topos {
			jobs = append(jobs, cell{scheme: s, topo: k})
		}
	}
	if !opt.FreshGraphs {
		// Generate each topology once, up front, so workers only clone.
		for _, k := range topos {
			l.topoProto(k)
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	sums := make([]metrics.Summary, len(jobs))
	errs := make([]error, len(jobs))
	runJob := func(i int) {
		sums[i], errs[i] = l.run(jobs[i].scheme, jobs[i].topo, opt.FreshGraphs, opt.Series, opt.Heap)
	}
	if workers <= 1 {
		for i := range jobs {
			if progress != nil {
				progress(jobs[i].scheme, jobs[i].topo)
			}
			runJob(i)
		}
	} else {
		var (
			progressMu sync.Mutex
			next       atomic.Int64
			wg         sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					if progress != nil {
						progressMu.Lock()
						progress(jobs[i].scheme, jobs[i].topo)
						progressMu.Unlock()
					}
					runJob(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m := make(Matrix, len(schemes))
	for i, j := range jobs {
		per := m[j.scheme]
		if per == nil {
			per = make(map[overlay.Kind]metrics.Summary, len(topos))
			m[j.scheme] = per
		}
		per[j.topo] = sums[i]
	}
	return m, nil
}

// Participants returns the universe peers selected as initial overlay
// participants — the population Figs. 2 and 3 describe.
func (l *Lab) Participants() []content.PeerID {
	return l.Tr.Peers[:l.Tr.InitialLive]
}

// Fig2 returns the number of selected peers whose contents fall in each
// semantic class.
func (l *Lab) Fig2() [content.NumClasses]int {
	return l.U.ContentClassCounts(l.Participants())
}

// Fig3 returns the number of selected peers interested in each class.
func (l *Lab) Fig3() [content.NumClasses]int {
	return l.U.InterestCounts(l.Participants())
}
