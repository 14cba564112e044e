package sim

import (
	"reflect"
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// shardProbeScheme is a synthetic stateful scheme built to make any illegal
// reordering by the sharded dispatcher visible: each query non-commutatively
// mutates its requester's per-node state (state' = 31·state + t, so even two
// swapped same-node queries diverge) and folds its live neighbours' states
// into the returned bytes, so a cross-lane read racing a write changes an
// aggregate — and trips the race detector. SearchOwner/AppendSearchReads
// declare exactly that shape to the planner.
type shardProbeScheme struct {
	sys   *System
	state []int64
	phase bool // inside BeginQueryPhase..EndQueryPhase
}

func (p *shardProbeScheme) Name() string { return "shard-probe" }
func (p *shardProbeScheme) Attach(sys *System) {
	p.sys = sys
	p.state = make([]int64, sys.NumNodes())
}

func (p *shardProbeScheme) Search(ev *trace.Event) metrics.SearchResult {
	sum := p.state[ev.Node]
	for _, nb := range p.sys.G.Neighbors(ev.Node) {
		sum += p.state[nb]
	}
	p.state[ev.Node] = p.state[ev.Node]*31 + ev.Time
	p.sys.Account(ev.Time, metrics.MQuery, 10)
	return metrics.SearchResult{
		Success:    sum%3 != 1,
		ResponseMS: ev.Time % 97,
		Bytes:      sum&0xffff + int64(ev.Node),
		Hops:       1,
	}
}

func (p *shardProbeScheme) SearchOwner(n overlay.NodeID) overlay.NodeID { return n }
func (p *shardProbeScheme) AppendSearchReads(owner overlay.NodeID, buf []overlay.NodeID) []overlay.NodeID {
	buf = append(buf, owner)
	return append(buf, p.sys.G.Neighbors(owner)...)
}
func (p *shardProbeScheme) BeginQueryPhase() { p.phase = true }
func (p *shardProbeScheme) EndQueryPhase()   { p.phase = false }

func (p *shardProbeScheme) ContentChanged(Clock, overlay.NodeID, content.DocID, bool) {}
func (p *shardProbeScheme) NodeJoined(Clock, overlay.NodeID)                          {}
func (p *shardProbeScheme) NodeLeft(Clock, overlay.NodeID)                            {}
func (p *shardProbeScheme) Tick(Clock)                                                {}
func (p *shardProbeScheme) LoadMask() metrics.ClassMask                               { return metrics.AllMask }

// TestShardedDispatcherMatchesSequential: for a stateful, order-sensitive
// scheme the sharded engine must reproduce the sequential replay
// exactly — summary, load series, and the final per-node state vector — at
// every shard count, including 1 and a count that does not divide the node
// space. Run under -race this also proves the conflict plan is sound: any
// undeclared overlap would race on the probe's plain int64 state.
func TestShardedDispatcherMatchesSequential(t *testing.T) {
	tr := testTrace(t)
	run := func(shards int) (metrics.Summary, []int64) {
		sys := NewSystem(testU, tr, overlay.Crawled, testNet, 9)
		sch := &shardProbeScheme{}
		sum := Run(sys, sch, RunOptions{Shards: shards})
		if sch.phase {
			t.Fatalf("shards=%d: query phase left open", shards)
		}
		return sum, sch.state
	}
	wantSum, wantState := run(0)
	for _, s := range []int{1, 2, 4, 7, -1} {
		sum, state := run(s)
		if !reflect.DeepEqual(wantSum, sum) {
			t.Errorf("shards=%d: summary diverged from sequential replay:\n%+v\n%+v", s, wantSum, sum)
		}
		if !slices.Equal(wantState, state) {
			t.Errorf("shards=%d: final scheme state diverged from sequential replay", s)
		}
	}
}

// pureProbeScheme is echoScheme plus the PureSearcher marker: stateless
// search, shardable by pure fan-out with no conflict analysis.
type pureProbeScheme struct{ echoScheme }

func (*pureProbeScheme) PureSearch() {}

// TestShardedPureSchemeMatchesSequential: a PureSearcher shards without
// declaring owners or read sets, and its outputs must still be identical to
// the sequential replay.
func TestShardedPureSchemeMatchesSequential(t *testing.T) {
	tr := testTrace(t)
	run := func(shards int) metrics.Summary {
		sys := NewSystem(testU, tr, overlay.Crawled, testNet, 9)
		return Run(sys, &pureProbeScheme{}, RunOptions{Shards: shards})
	}
	want := run(0)
	for _, s := range []int{1, 3, 8} {
		sameSummary(t, "pure sharded", want, run(s))
	}
}

// TestShardedFallbackWithoutInterfaces: a scheme that declares neither
// SearchSharder nor PureSearcher must fall back to the sequential replay
// rather than being fanned out on unproven assumptions.
func TestShardedFallbackWithoutInterfaces(t *testing.T) {
	if d := newShardDispatcher(&echoScheme{}, 100, 4); d != nil {
		t.Fatal("dispatcher built for a scheme with no declared search shape")
	}
	if d := newShardDispatcher(&shardProbeScheme{}, 100, 4); d == nil {
		t.Fatal("no dispatcher for a SearchSharder scheme")
	}
	if d := newShardDispatcher(&pureProbeScheme{}, 100, 4); d == nil {
		t.Fatal("no dispatcher for a PureSearcher scheme")
	}
}
