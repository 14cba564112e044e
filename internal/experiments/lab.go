package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/netmodel"
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
// fan them across a worker pool. The inputs do not depend on
// Scale.LossRate, which each run reads when it attaches the fault plane.
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

// NewLab builds the shared inputs for a scale preset. The physical network
// is independent of the content universe and the trace built over it, and
// each generator draws from its own seeded stream, so the network is
// generated on a goroutine of its own while the content and the trace are
// built on this one.
func NewLab(sc Scale) (*Lab, error) {
	sc.Net.Seed = sc.Seed
	sc.Content.Seed = sc.Seed
	sc.Trace.Seed = sc.Seed
	netc := make(chan *netmodel.Network, 1)
	go func() { netc <- netmodel.Generate(sc.Net) }()
	u := content.Generate(sc.Content)
	tr, err := trace.Build(u, sc.Trace)
	net := <-netc
	if err != nil {
		return nil, fmt.Errorf("experiments: building trace: %w", err)
	}
	return &Lab{Scale: sc, Net: net, U: u, Tr: tr}, nil
}

// variantKeys is the one table of ASAP variants: each key of a scheme
// name's "+key=int" suffix sets one core.Config field, after
// Scale.ASAPConfig. A boolean field takes 0 or 1.
var variantKeys = []struct {
	key string
	set func(c *core.Config, v int) error
}{
	{"h", func(c *core.Config, v int) error { c.AdsRequestHops = v; return nil }},
	{"cap", func(c *core.Config, v int) error { c.CacheCapacity = v; return nil }},
	{"refresh", func(c *core.Config, v int) error { c.RefreshPeriodSec = v; return nil }},
	{"stale", func(c *core.Config, v int) error { c.StaleFactor = v; return nil }},
	{"div", func(c *core.Config, v int) error { c.UpdateBudgetDiv = v; return nil }},
	{"min", func(c *core.Config, v int) error { c.MinResults = v; return nil }},
	{"varfilters", func(c *core.Config, v int) error { return setBool(&c.VariableFilters, v) }},
	{"biased", func(c *core.Config, v int) error { return setBool(&c.BiasedDelivery, v) }},
}

func setBool(f *bool, v int) error {
	if v != 0 && v != 1 {
		return fmt.Errorf("%d is not 0 or 1", v)
	}
	*f = v == 1
	return nil
}

// NewScheme constructs a named scheme configured for this lab's scale. An
// ASAP name may carry a variant suffix, "asap-rw+h=2+cap=400": each
// key=int edits one field of the scale's configuration (variantKeys).
func (l *Lab) NewScheme(name string) (sim.Scheme, error) {
	base, suffix, variant := strings.Cut(name, "+")
	if d, ok := core.DeliveryByScheme(base); ok {
		cfg := l.Scale.ASAPConfig(d)
		if variant {
			if err := editConfig(&cfg, suffix); err != nil {
				return nil, fmt.Errorf("experiments: scheme %q: %w", name, err)
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: scheme %q: %w", name, err)
		}
		return core.New(cfg), nil
	}
	if variant {
		return nil, fmt.Errorf("experiments: scheme %q: only asap-* schemes take a variant", name)
	}
	switch name {
	case "flooding":
		return search.NewFlooding(), nil
	case "random-walk":
		return search.NewRandomWalk(l.Scale.Seed), nil
	case "gsa":
		return search.NewGSA(l.Scale.Seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// editConfig applies a variant suffix, "h=2+cap=400", to cfg: each key
// at most once, each value an integer.
func editConfig(cfg *core.Config, suffix string) error {
	keys := make([]string, len(variantKeys))
	for i, k := range variantKeys {
		keys[i] = k.key
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(suffix, "+") {
		key, val, _ := strings.Cut(kv, "=")
		i := slices.Index(keys, key)
		if i < 0 {
			return fmt.Errorf("unknown variant %q (keys: %s)", kv, strings.Join(keys, ", "))
		}
		if seen[key] {
			return fmt.Errorf("variant key %q given twice", key)
		}
		seen[key] = true
		v, err := strconv.Atoi(val)
		if err == nil {
			err = variantKeys[i].set(cfg, v)
		}
		if err != nil {
			return fmt.Errorf("variant %q: %w", kv, err)
		}
	}
	return nil
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
	c, err := l.run(schemeName, topo)
	return c.Summary, err
}

// NewSystem builds a system for topo from the lab's prototype and attaches
// the fault plane Scale.LossRate asks for. A cloned prototype replays
// bit-for-bit like a system built from scratch with sim.NewSystem and the
// lab's seed (see sim.TestTopoProtoReplayMatchesFresh).
func (l *Lab) NewSystem(topo overlay.Kind) *sim.System {
	sys := l.topoProto(topo).NewSystem(l.U, l.Tr)
	if l.Scale.LossRate > 0 {
		sys.SetFaults(faults.New(faults.Config{Seed: l.Scale.Seed, LossRate: l.Scale.LossRate}))
	}
	return sys
}

// Replay replays the whole trace under sch on NewSystem(topo) and returns
// the replayed system with its summary.
func (l *Lab) Replay(sch sim.Scheme, topo overlay.Kind) (*sim.System, metrics.Summary) {
	sys := l.NewSystem(topo)
	return sys, sim.Run(sys, sch, sim.RunOptions{})
}

// run replays one cell.
func (l *Lab) run(schemeName string, topo overlay.Kind) (Cell, error) {
	sch, err := l.NewScheme(schemeName)
	if err != nil {
		return Cell{}, err
	}
	sys, sum := l.Replay(sch, topo)
	sum.Scheme = schemeName // a variant's name, not its base scheme's
	return Cell{Scheme: schemeName, Topo: topo, Summary: sum, Load: sys.Load}, nil
}

// Cell is one scheme × topology run: its summary and its ledger, from
// which the run's per-second series is read (obs.Series).
type Cell struct {
	Scheme  string
	Topo    overlay.Kind
	Summary metrics.Summary
	Load    *metrics.LoadAccount
}

// Key names the cell's run, "scheme/topology" — its series key.
func (c Cell) Key() string { return c.Scheme + "/" + c.Topo.String() }

// Matrix holds one Summary per scheme × topology.
type Matrix map[string]map[overlay.Kind]metrics.Summary

// MatrixOf indexes cells' summaries by scheme and topology.
func MatrixOf(cells []Cell) Matrix {
	m := make(Matrix)
	for _, c := range cells {
		per := m[c.Scheme]
		if per == nil {
			per = make(map[overlay.Kind]metrics.Summary)
			m[c.Scheme] = per
		}
		per[c.Topo] = c.Summary
	}
	return m
}

// RunMatrix runs every given scheme on every given topology across a
// worker pool of Scale.MatrixWorkers (0 = GOMAXPROCS) and returns the
// cells in scheme-major order. Nil slices select the full paper matrix.
// Progress, if non-nil, is invoked before each run and is never called
// concurrently.
//
// Parallelism lives at the cell level only: each cell is one sequential
// replay on its own system. Cells are independent, so the returned cells
// are identical for every worker count (TestRunMatrixParallelDeterminism).
func (l *Lab) RunMatrix(schemes []string, topos []overlay.Kind, progress func(scheme string, topo overlay.Kind)) ([]Cell, error) {
	if schemes == nil {
		schemes = SchemeNames
	}
	if topos == nil {
		topos = overlay.Kinds
	}
	cells := make([]Cell, 0, len(schemes)*len(topos))
	for _, s := range schemes {
		for _, k := range topos {
			cells = append(cells, Cell{Scheme: s, Topo: k})
		}
	}
	// Generate each topology once, up front, so workers only clone.
	for _, k := range topos {
		l.topoProto(k)
	}
	workers := l.Scale.MatrixWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	var (
		progressMu sync.Mutex
		next       atomic.Int64
		wg         sync.WaitGroup
	)
	errs := make([]error, len(cells))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				if progress != nil {
					progressMu.Lock()
					progress(cells[i].Scheme, cells[i].Topo)
					progressMu.Unlock()
				}
				cells[i], errs[i] = l.run(cells[i].Scheme, cells[i].Topo)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
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
