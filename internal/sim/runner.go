package sim

import (
	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// Scheme is a pluggable search algorithm under test: the three baselines
// and the three ASAP variants all implement it.
//
// Attach is called once before replay and may pre-distribute state (ASAP's
// warm-up ad delivery). The replay calls every method from one goroutine,
// so a scheme needs no locks of its own.
type Scheme interface {
	// Name returns the scheme label used in figures (e.g. "flooding",
	// "asap-rw").
	Name() string
	// Attach binds the scheme to a system and performs warm-up work.
	Attach(sys *System)
	// Search executes one query event and returns its outcome.
	Search(ev *trace.Event) metrics.SearchResult
	// ContentChanged notifies that node n added (or removed) document d at
	// time t; the system state is already updated.
	ContentChanged(t Clock, n overlay.NodeID, d content.DocID, added bool)
	// NodeJoined notifies that n has joined and been wired.
	NodeJoined(t Clock, n overlay.NodeID)
	// NodeLeft notifies that n has left ungracefully.
	NodeLeft(t Clock, n overlay.NodeID)
	// Tick fires once per virtual second, for periodic work (refresh ads).
	Tick(t Clock)
	// LoadMask selects which message classes count toward this scheme's
	// system load (§V-B counts query messages for baselines, everything
	// for ASAP).
	LoadMask() metrics.ClassMask
}

// GracefulLeaver is an optional Scheme extension. When a scheme
// implements it, the runner announces every Leave event before the
// overlay detaches the node — while its links are still intact — so the
// scheme can send goodbye traffic. Schemes gate the actual goodbye on the
// fault plane's graceful-leave mode; without it the hook must be a no-op
// (departures stay ungraceful, the paper's model).
type GracefulLeaver interface {
	NodeLeaving(t Clock, n overlay.NodeID)
}

// ContentBatcher is an optional Scheme extension. When a scheme implements
// it, the runner coalesces each run of consecutive same-node, same-second
// ContentAdd/ContentRemove events into one ContentChangedBatch call (system
// state for the whole run is already applied; t is the run's last event
// time) instead of per-event ContentChanged calls. Coalescing never spans a
// query, tick boundary, or any other event, so no observer can distinguish
// the intermediate states — the scheme is free to advertise the run's net
// effect once.
type ContentBatcher interface {
	ContentChangedBatch(t Clock, n overlay.NodeID, docs []content.DocID, added []bool)
}

// RunOptions tunes the replay. It has no live fields: every replay is
// sequential.
type RunOptions struct {
	// Deprecated: ignored; every replay is sequential. The field remains
	// so callers that still set it compile.
	Shards int
}

// Run replays the system's trace against the scheme and summarises the
// paper's metrics for it. It drives a Stepper (stepper.go) to completion,
// executing each query batch in trace order on the calling goroutine, so
// the summary is a pure function of (system, scheme).
func Run(sys *System, sch Scheme, _ RunOptions) metrics.Summary {
	st := NewStepper(sys, sch, 0)
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		for _, ev := range batch {
			st.Record(ev, sch.Search(ev))
		}
	}
	return st.Finish()
}
