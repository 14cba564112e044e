package asap

import (
	"fmt"
	"math/rand/v2"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/netmodel"
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
	// ContentScale shrinks the synthetic content universe; 0 picks a size
	// proportional to Nodes.
	ContentScale float64
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
// advertisement-based search outside the paper's trace harness.
//
// Cluster methods are not safe for concurrent use; drive it from one
// goroutine.
type Cluster struct {
	cfg   ClusterConfig
	net   *netmodel.Network
	u     *content.Universe
	sys   *sim.System
	sch   sim.Scheme
	stats metrics.SearchStats
	rng   *rand.Rand

	nowMS  sim.Clock
	curSec int
}

// NewCluster builds a warmed-up cluster: peers are placed, the overlay is
// wired, and (for ASAP schemes) the initial full-ad distribution has run.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("asap: cluster needs ≥2 nodes, got %d", cfg.Nodes)
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
	scale := cfg.ContentScale
	if scale <= 0 {
		// ≈4 universe peers per overlay node keeps selection diverse.
		scale = min(1, float64(4*(cfg.Nodes+cfg.Reserve))/37000)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x2545f4914f6cdd1d))
	ccfg := content.DefaultConfig().Scaled(scale)
	ccfg.Seed = cfg.Seed
	u := content.Generate(ccfg)
	total := cfg.Nodes + cfg.Reserve
	if total > u.NumPeers() {
		return nil, fmt.Errorf("asap: universe too small (%d peers) for %d cluster nodes", u.NumPeers(), total)
	}

	// Select peers uniformly without replacement.
	peers := make([]content.PeerID, u.NumPeers())
	for i := range peers {
		peers[i] = content.PeerID(i)
	}
	for i := 0; i < total; i++ {
		j := i + rng.IntN(len(peers)-i)
		peers[i], peers[j] = peers[j], peers[i]
	}
	peers = peers[:total:total]

	net := netmodel.Generate(netmodel.SmallConfig())
	sys := sim.NewSystemForPeers(u, peers, cfg.Nodes, cfg.HorizonSec, cfg.Topology, net, cfg.Seed)
	if cfg.Faults != nil {
		fc := *cfg.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		sys.SetFaults(faults.New(fc))
	}

	// The paper's delivery budget (M₀=3,000) is calibrated to a 10,000-node
	// overlay; keep the coverage fraction constant. core.Config.Scaled
	// floors the tiny end.
	factor := min(1, float64(cfg.Nodes)/10000)
	lab := &Cluster{cfg: cfg, net: net, u: u, sys: sys, rng: rng}
	sch, err := lab.newScheme(cfg.Scheme, factor)
	if err != nil {
		return nil, err
	}
	lab.sch = sch
	sch.Attach(sys)
	sys.Load.SetLive(0, sys.G.LiveCount())
	return lab, nil
}

func (c *Cluster) newScheme(name string, factor float64) (sim.Scheme, error) {
	if c.cfg.ASAP != nil {
		cfg := *c.cfg.ASAP
		switch name {
		case "asap-fld":
			cfg.Delivery = core.FLD
		case "asap-rw":
			cfg.Delivery = core.RW
		case "asap-gsa":
			cfg.Delivery = core.GSAKind
		default:
			return nil, fmt.Errorf("asap: ASAP config given but scheme is %q", name)
		}
		return core.New(cfg), nil
	}
	sc := ScaleTiny()
	sc.Factor = factor
	sc.Seed = c.cfg.Seed
	sc.RefreshPeriodSec = 30
	if c.cfg.Topology == SuperPeer {
		// Footnote-3 mode: ASAP runs hierarchically on a super-peer
		// overlay; only super peers represent, deliver, cache and process
		// ads.
		switch name {
		case "asap-fld", "asap-rw", "asap-gsa":
			acfg := sc.ASAPConfig(deliveryByName(name))
			acfg.Hierarchical = true
			return core.New(acfg), nil
		}
	}
	lab := &Lab{Scale: sc}
	return lab.NewScheme(name)
}

func deliveryByName(name string) core.DeliveryKind {
	switch name {
	case "asap-fld":
		return core.FLD
	case "asap-gsa":
		return core.GSAKind
	default:
		return core.RW
	}
}

// Now returns the cluster's virtual time in milliseconds.
func (c *Cluster) Now() int64 { return c.nowMS }

// Advance moves the virtual clock forward, firing per-second periodic
// work (refresh ads) and live-count accounting.
func (c *Cluster) Advance(seconds int) {
	for i := 0; i < seconds; i++ {
		c.curSec++
		c.nowMS = int64(c.curSec) * 1000
		c.sys.Load.SetLive(c.curSec, c.sys.G.LiveCount())
		c.sch.Tick(c.nowMS)
	}
}

// NumNodes returns the overlay size including reserves.
func (c *Cluster) NumNodes() int { return c.sys.NumNodes() }

// Latency returns the one-way physical latency between two overlay nodes
// in milliseconds — the quantity ASAP's one-hop confirmation pays twice.
func (c *Cluster) Latency(a, b NodeID) int { return c.sys.Latency(a, b) }

// LiveCount returns the number of live peers.
func (c *Cluster) LiveCount() int { return c.sys.G.LiveCount() }

// Alive reports whether node n participates.
func (c *Cluster) Alive(n NodeID) bool { return c.sys.G.Alive(n) }

// Docs returns the documents node n currently shares (shared view).
func (c *Cluster) Docs(n NodeID) []DocID { return c.sys.Docs(n) }

// Interests returns node n's interest classes.
func (c *Cluster) Interests(n NodeID) ClassSet { return c.sys.Interests(n) }

// Keywords returns a document's keywords (shared view).
func (c *Cluster) Keywords(d DocID) []Keyword { return c.u.Keywords(d) }

// ClassOf returns a document's semantic class.
func (c *Cluster) ClassOf(d DocID) Class { return c.u.ClassOf(d) }

// NumDocs returns the number of distinct documents in the universe.
func (c *Cluster) NumDocs() int { return c.u.NumDocs() }

// Search runs one query from node n for the given terms at the current
// virtual time and records it in the cluster statistics.
func (c *Cluster) Search(n NodeID, terms []Keyword) Result {
	ev := trace.Event{Time: c.nowMS, Kind: trace.Query, Node: n, Terms: terms}
	res := c.sch.Search(&ev)
	c.stats.Record(res)
	return res
}

// SearchForDoc searches from node n using up to maxTerms of document d's
// keywords — the everyday "find me this file" call.
func (c *Cluster) SearchForDoc(n NodeID, d DocID, maxTerms int) Result {
	kws := c.u.Keywords(d)
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
		if !c.sys.Interests(req).Has(c.u.ClassOf(doc)) {
			continue
		}
		return req, doc, true
	}
	return 0, 0, false
}

// AddDocument makes node n share document d and propagates the content
// change to the scheme (ASAP publishes a patch ad).
func (c *Cluster) AddDocument(n NodeID, d DocID) {
	ev := trace.Event{Time: c.nowMS, Kind: trace.ContentAdd, Node: n, Doc: d}
	c.sys.ApplyEvent(&ev)
	c.sch.ContentChanged(c.nowMS, n, d, true)
}

// RemoveDocument stops node n sharing document d.
func (c *Cluster) RemoveDocument(n NodeID, d DocID) {
	ev := trace.Event{Time: c.nowMS, Kind: trace.ContentRemove, Node: n, Doc: d}
	c.sys.ApplyEvent(&ev)
	c.sch.ContentChanged(c.nowMS, n, d, false)
}

// Join activates a reserve node; it wires into the overlay, advertises,
// and pulls neighbourhood ads.
func (c *Cluster) Join(n NodeID) error {
	if c.sys.G.Alive(n) {
		return fmt.Errorf("asap: node %d already live", n)
	}
	ev := trace.Event{Time: c.nowMS, Kind: trace.Join, Node: n}
	c.sys.ApplyEvent(&ev)
	c.sch.NodeJoined(c.nowMS, n)
	// The per-node load denominator changed mid-second; refresh it so this
	// second's KB/node/s uses the population that actually carried the load.
	c.sys.Load.SetLive(c.curSec, c.sys.G.LiveCount())
	return nil
}

// Leave removes node n. Departures are ungraceful, the paper's churn
// model: no goodbye messages, and its ads decay elsewhere via refresh
// expiry or a failed confirmation.
func (c *Cluster) Leave(n NodeID) error {
	if !c.sys.G.Alive(n) {
		return fmt.Errorf("asap: node %d not live", n)
	}
	ev := trace.Event{Time: c.nowMS, Kind: trace.Leave, Node: n}
	c.sys.ApplyEvent(&ev)
	c.sch.NodeLeft(c.nowMS, n)
	c.sys.Load.SetLive(c.curSec, c.sys.G.LiveCount())
	return nil
}

// Stats summarises all searches issued so far plus the system load
// accumulated over the advanced clock.
func (c *Cluster) Stats() Summary {
	var mask metrics.ClassMask
	if s, ok := c.sch.(interface{ LoadMask() metrics.ClassMask }); ok {
		mask = s.LoadMask()
	} else {
		mask = metrics.AllMask
	}
	return metrics.Summarize(c.sch.Name(), c.sys.G.Kind().String(), &c.stats, c.sys.Load, mask)
}

// SchemeName returns the active scheme's label.
func (c *Cluster) SchemeName() string { return c.sch.Name() }
