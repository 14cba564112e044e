package asap

import (
	"fmt"
	"math/rand/v2"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/sim"
	"asap/internal/trace"
)

// ClusterConfig sizes an interactively driven ASAP system.
type ClusterConfig struct {
	// Nodes is the number of initially live peers.
	Nodes int
	// Reserve is how many additional peers can Join later.
	Reserve int
	// Topology selects the overlay family (default Random).
	Topology Topology
	// Scheme names the search algorithm (any of SchemeNames; default
	// "asap-rw").
	Scheme string
	// HorizonSec bounds how far the virtual clock can advance (sizes load
	// accounting; default 600).
	HorizonSec int
	// ASAP overrides the derived ASAP configuration when non-nil.
	ASAP *ASAPConfig
	// Faults attaches a deterministic fault-injection plane when non-nil:
	// lossy links and latency jitter. A zero Faults.Seed inherits the
	// cluster seed. Nil means the paper's reliable network.
	Faults *FaultsConfig
	Seed   uint64
}

// Cluster is a live ASAP system under manual control: a content universe,
// an overlay of peers, and a search scheme, driven by an explicit virtual
// clock. It is the API an application embeds to experiment with
// advertisement-based search outside the paper's trace harness: a Lab's
// system at the scale clusterScale maps its config to, and a replay's
// clock (sim.Stepper) that the caller advances by hand.
//
// Cluster methods are not safe for concurrent use; drive it from one
// goroutine.
type Cluster struct {
	sys *sim.System
	sch sim.Scheme
	st  *sim.Stepper
	rng *rand.Rand
}

// NewCluster builds a warmed-up cluster: peers are placed, the overlay is
// wired, and (for ASAP schemes) the initial full-ad distribution has run.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("asap: cluster needs ≥2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Reserve < 0 {
		return nil, fmt.Errorf("asap: negative reserve %d", cfg.Reserve)
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "asap-rw"
	}
	if cfg.HorizonSec <= 0 {
		cfg.HorizonSec = 600
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	lab, err := experiments.NewLab(clusterScale(cfg))
	if err != nil {
		return nil, fmt.Errorf("asap: cluster of %d nodes: %w", cfg.Nodes+cfg.Reserve, err)
	}
	sch, err := newScheme(cfg, lab)
	if err != nil {
		return nil, err
	}
	sys := lab.NewSystem(cfg.Topology)
	sys.Load = metrics.NewLoadAccount(cfg.HorizonSec)
	if cfg.Faults != nil {
		fc := *cfg.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		sys.SetFaults(faults.New(fc))
	}
	st := sim.NewStepper(sys, sch, 0)
	return &Cluster{sys, sch, st, rand.New(rand.NewPCG(cfg.Seed, 0x2545f4914f6cdd1d))}, nil
}

// clusterScale maps a cluster's config to the Lab scale its system is
// built at: the tiny preset, a universe of about four peers per node to
// keep peer selection diverse, and a trace that only selects the peers
// (nodes, then reserve): no queries or departures, and the cluster never
// replays its reserve joins (the caller drives it).
func clusterScale(cfg ClusterConfig) experiments.Scale {
	sc := experiments.ScaleTiny()
	sc.Name = "cluster"
	sc.Content = content.DefaultConfig().Scaled(min(1, float64(4*(cfg.Nodes+cfg.Reserve))/37000))
	sc.Trace.NumNodes = cfg.Nodes
	sc.Trace.NumJoins = cfg.Reserve
	sc.Trace.NumQueries, sc.Trace.NumLeaves = 0, 0
	// The paper's delivery budget (M₀=3,000) is calibrated to a 10,000-node
	// overlay; keep the coverage fraction constant. core.Config.Scaled
	// floors the tiny end.
	sc.Factor = min(1, float64(cfg.Nodes)/10000)
	// A session lasts minutes of virtual time (HorizonSec defaults to
	// 600 s); at the paper's 300 s period a node would refresh its ad at
	// most twice in it.
	sc.RefreshPeriodSec = 30
	sc.Seed = cfg.Seed
	return sc
}

// newScheme builds cfg's scheme: from the explicit ASAP config, its
// delivery taken from the scheme name, or as the lab builds it. The
// overlay selects the super-peer mode either way.
func newScheme(cfg ClusterConfig, lab *experiments.Lab) (sim.Scheme, error) {
	if cfg.ASAP == nil {
		return lab.NewScheme(cfg.Scheme)
	}
	d, ok := core.DeliveryByScheme(cfg.Scheme)
	if !ok {
		return nil, fmt.Errorf("asap: ASAP config given but scheme is %q", cfg.Scheme)
	}
	acfg := *cfg.ASAP
	acfg.Delivery = d
	if err := acfg.Validate(); err != nil {
		return nil, fmt.Errorf("asap: ASAP config: %w", err)
	}
	return core.New(acfg), nil
}

// Now returns the cluster's virtual time in milliseconds.
func (c *Cluster) Now() int64 { return c.st.Now() }

// Advance moves the virtual clock forward, firing per-second periodic
// work (refresh ads) and live-count accounting.
func (c *Cluster) Advance(seconds int) { c.st.AdvanceTo(c.Now() + int64(seconds)*1000) }

// NumNodes returns the overlay size including reserves.
func (c *Cluster) NumNodes() int { return c.sys.NumNodes() }

// Latency returns the one-way physical latency between two overlay nodes
// in milliseconds — the quantity ASAP's one-hop confirmation pays twice.
// Both must lie in [0, NumNodes()).
func (c *Cluster) Latency(a, b NodeID) int { return c.sys.Latency(a, b) }

// LiveCount returns the number of live peers.
func (c *Cluster) LiveCount() int { return c.sys.G.LiveCount() }

// Alive reports whether node n participates; an id outside
// [0, NumNodes()) does not.
func (c *Cluster) Alive(n NodeID) bool { return n >= 0 && int(n) < c.NumNodes() && c.sys.G.Alive(n) }

// Docs returns the documents node n currently shares (shared view). n must
// lie in [0, NumNodes()).
func (c *Cluster) Docs(n NodeID) []DocID { return c.sys.Docs(n) }

// Interests returns node n's interest classes. n must lie in
// [0, NumNodes()).
func (c *Cluster) Interests(n NodeID) ClassSet { return c.sys.Interests(n) }

// Keywords returns a document's keywords (shared view).
func (c *Cluster) Keywords(d DocID) []Keyword { return c.sys.U.Keywords(d) }

// ClassOf returns a document's semantic class.
func (c *Cluster) ClassOf(d DocID) Class { return c.sys.U.ClassOf(d) }

// NumDocs returns the number of distinct documents in the universe.
func (c *Cluster) NumDocs() int { return c.sys.U.NumDocs() }

// Search runs one query from node n for the given terms at the current
// virtual time and records it in the cluster statistics. n must lie in
// [0, NumNodes()).
func (c *Cluster) Search(n NodeID, terms []Keyword) Result {
	ev := trace.Event{Time: c.Now(), Kind: trace.Query, Node: n, Terms: terms}
	res := c.sch.Search(&ev)
	c.sys.Load.Search(ev.Time, res)
	return res
}

// SearchForDoc searches from node n using up to maxTerms of document d's
// keywords — the everyday "find me this file" call. n must lie in
// [0, NumNodes()) and d in [0, NumDocs()).
func (c *Cluster) SearchForDoc(n NodeID, d DocID, maxTerms int) Result {
	kws := c.Keywords(d)
	if maxTerms <= 0 || maxTerms > len(kws) {
		maxTerms = len(kws)
	}
	return c.Search(n, kws[:maxTerms])
}

// RandomQuery picks a requester and a target document the way the paper's
// trace does: the target is shared by a live node other than the
// requester and lies in the requester's interests. It returns false if no
// such pair is found quickly.
func (c *Cluster) RandomQuery() (n NodeID, d DocID, ok bool) {
	for try := 0; try < 400; try++ {
		req := NodeID(c.rng.IntN(c.sys.NumNodes()))
		if !c.sys.G.Alive(req) {
			continue
		}
		holder := NodeID(c.rng.IntN(c.sys.NumNodes()))
		if holder == req || !c.sys.G.Alive(holder) {
			continue
		}
		docs := c.sys.Docs(holder)
		if len(docs) == 0 {
			continue
		}
		doc := docs[c.rng.IntN(len(docs))]
		if !c.sys.Interests(req).Has(c.ClassOf(doc)) {
			continue
		}
		return req, doc, true
	}
	return 0, 0, false
}

// AddDocument makes node n share document d and propagates the content
// change to the scheme (ASAP publishes a patch ad).
func (c *Cluster) AddDocument(n NodeID, d DocID) error { return c.apply(trace.ContentAdd, n, d) }

// RemoveDocument stops node n sharing document d.
func (c *Cluster) RemoveDocument(n NodeID, d DocID) error {
	return c.apply(trace.ContentRemove, n, d)
}

// Join activates a reserve node; it wires into the overlay, advertises,
// and pulls neighbourhood ads.
func (c *Cluster) Join(n NodeID) error { return c.apply(trace.Join, n, 0) }

// Leave removes node n. Departures are ungraceful, the paper's churn
// model: no goodbye messages, and its ads decay elsewhere via refresh
// expiry or a failed confirmation.
func (c *Cluster) Leave(n NodeID) error { return c.apply(trace.Leave, n, 0) }

// apply applies one state event at the current virtual time the way a
// replay does (sim.ApplyStateEvent). A node outside [0, NumNodes()), a
// document outside [0, NumDocs()), a Join of a live node and a Leave of a
// dead one are errors and change nothing.
func (c *Cluster) apply(kind trace.Kind, n NodeID, d DocID) error {
	switch {
	case n < 0 || int(n) >= c.NumNodes():
		return fmt.Errorf("asap: node %d out of range [0,%d)", n, c.NumNodes())
	case int(d) >= c.NumDocs():
		return fmt.Errorf("asap: document %d out of range [0,%d)", d, c.NumDocs())
	case kind == trace.Join && c.Alive(n):
		return fmt.Errorf("asap: node %d already live", n)
	case kind == trace.Leave && !c.Alive(n):
		return fmt.Errorf("asap: node %d not live", n)
	}
	ev := trace.Event{Time: c.Now(), Kind: kind, Node: n, Doc: d}
	sim.ApplyStateEvent(c.sys, c.sch, &ev)
	if kind == trace.Join || kind == trace.Leave {
		// The per-node load denominator changed mid-second; refresh it so
		// this second's KB/node/s uses the population that carried the load.
		c.sys.Load.SetLive(int(ev.Time/1000), c.LiveCount())
	}
	return nil
}

// Stats summarises all searches issued so far plus the system load
// accumulated over the advanced clock.
func (c *Cluster) Stats() Summary {
	return metrics.Summarize(c.sch.Name(), c.sys.G.Kind().String(), c.sys.Load, c.sch.LoadMask())
}

// SchemeName returns the active scheme's label.
func (c *Cluster) SchemeName() string { return c.sch.Name() }
