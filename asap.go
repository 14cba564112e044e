package asap

import (
	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// Topology selects one of the paper's overlay families.
type Topology = overlay.Kind

// The three topologies of §IV-A, plus the two-tier super-peer hierarchy
// of footnote 3.
const (
	Random    Topology = overlay.Random
	PowerLaw  Topology = overlay.PowerLaw
	Crawled   Topology = overlay.Crawled
	SuperPeer Topology = overlay.SuperPeerKind
)

// Re-exported identifier and data types, so downstream code rarely needs
// the internal packages.
type (
	// NodeID identifies an overlay node.
	NodeID = overlay.NodeID
	// DocID identifies a distinct document.
	DocID = content.DocID
	// Keyword is an interned search term.
	Keyword = content.Keyword
	// Class is one of the 14 semantic categories.
	Class = content.Class
	// ClassSet is a bitmask of classes: interests or ad topics.
	ClassSet = content.ClassSet
	// Summary carries one run's evaluation metrics (one bar per figure).
	Summary = metrics.Summary
	// Result is the outcome of a single search.
	Result = metrics.SearchResult
	// Matrix maps scheme × topology to summaries.
	Matrix = experiments.Matrix
	// Scale is an experiment size preset.
	Scale = experiments.Scale
	// Lab owns the shared inputs of one scale preset.
	Lab = experiments.Lab
	// ASAPConfig tunes the ASAP scheme (delivery algorithm, budgets,
	// cache capacity, refresh period).
	ASAPConfig = core.Config
	// FaultsConfig parameterises the deterministic fault-injection plane
	// (message loss rate, latency jitter).
	FaultsConfig = faults.Config
)

// SchemeNames lists the six schemes of the paper's comparison, in order:
// flooding, random-walk, gsa, asap-fld, asap-rw, asap-gsa.
var SchemeNames = experiments.SchemeNames

// Scale presets.
var (
	// ScaleFull is the paper's configuration: 51,984 physical nodes,
	// 10,000 peers, 30,000 requests.
	ScaleFull = experiments.ScaleFull
	// ScaleSmall is a 1/10 linear reduction for benches.
	ScaleSmall = experiments.ScaleSmall
	// ScaleTiny is a 1/25 reduction for tests and quickstarts.
	ScaleTiny = experiments.ScaleTiny
	// ScaleByName resolves "full", "small" or "tiny".
	ScaleByName = experiments.ByName
)

// NewLab generates the shared experiment inputs (physical network, content
// universe, trace) for a scale preset. Labs are reusable across runs.
func NewLab(sc Scale) (*Lab, error) { return experiments.NewLab(sc) }

// RunExperiment builds a lab at the named scale and replays its trace
// under the named scheme on the given topology. For several runs at one
// scale, build a Lab once and call its Run method instead.
func RunExperiment(scaleName, scheme string, topo Topology) (Summary, error) {
	sc, err := experiments.ByName(scaleName)
	if err != nil {
		return Summary{}, err
	}
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return Summary{}, err
	}
	return lab.Run(scheme, topo)
}

// TopologyByName resolves "random", "powerlaw", "crawled" or "superpeer".
func TopologyByName(name string) (Topology, error) { return overlay.KindByName(name) }

// Event re-exports the trace event type for custom replay tooling.
type Event = trace.Event
