package sim

import (
	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/trace"
)

// Stepper is the sequential replay core. Run drives it to completion;
// callers that must interleave other work drive it incrementally, as the
// serving plane's warm-up does. It owns the stepping discipline — tick
// boundaries, content-run coalescing — so Run and any caller that executes
// every batch in trace order produce byte-identical summaries.
//
// The protocol is: NextBatch() applies state events (content churn,
// joins, leaves, ticks) up to the next flush point and returns the
// pending run of consecutive query events, or nil when the trace is
// exhausted. The caller executes each query (in order, via the scheme's
// Search) and folds every outcome with Record. Finish() fills the load
// series to the horizon and summarises.
type Stepper struct {
	sys *System
	sch Scheme
	rec *obs.Recorder // heap sampling only

	curSec   int
	nextTick Clock
	i        int // next unconsumed trace event
	batch    []*trace.Event
	maxBatch int

	batcher  ContentBatcher // nil unless the scheme opts in
	runDocs  []content.DocID
	runAdded []bool
}

// NewStepper attaches the scheme (warm-up) and positions the replay at
// the first trace event. maxBatch caps the query-run length NextBatch
// returns; 0 means a run only ends at the next state event or tick
// boundary — Run's semantics.
func NewStepper(sys *System, sch Scheme, maxBatch int) *Stepper {
	st := &Stepper{sys: sys, sch: sch, rec: sys.obs, maxBatch: maxBatch}
	sch.Attach(sys)
	st.rec.SampleHeap()
	st.nextTick = 1000
	sys.Load.SetLive(0, sys.G.LiveCount())
	st.batcher, _ = sch.(ContentBatcher)
	return st
}

// Now returns the replay clock in virtual milliseconds: the last tick
// boundary crossed. Connection counters key network traffic by it.
func (st *Stepper) Now() Clock { return int64(st.curSec) * 1000 }

// AdvanceTo fires tick work (live count, then Tick) for every second
// boundary at or before t. A system driven by hand, as asap.Cluster is,
// moves its clock with it and never calls NextBatch.
func (st *Stepper) AdvanceTo(t Clock) {
	for st.nextTick <= t {
		st.curSec++
		st.sys.Load.SetLive(st.curSec, st.sys.G.LiveCount())
		st.sch.Tick(int64(st.curSec) * 1000)
		st.nextTick += 1000
		// One heap high-water sample per simulated second: free when no
		// gauge is attached, dense enough to catch the replay peak.
		st.rec.SampleHeap()
	}
}

// NextBatch applies state events up to the next flush point and returns
// the pending run of consecutive query events, in trace order. The
// returned slice is valid until the next NextBatch call. A nil return
// means the trace is exhausted: call Finish.
//
// Flush points: a query run ends when a state event or
// a tick boundary intervenes (ticks may mutate scheme state, so the run
// drains before the boundary is crossed), or when maxBatch is reached.
func (st *Stepper) NextBatch() []*trace.Event {
	st.batch = st.batch[:0]
	evs := st.sys.Tr.Events
	for ; st.i < len(evs); st.i++ {
		ev := &evs[st.i]
		if ev.Kind == trace.Query {
			if st.nextTick <= ev.Time {
				if len(st.batch) > 0 {
					return st.batch // drain before crossing the boundary
				}
				st.AdvanceTo(ev.Time)
			}
			st.batch = append(st.batch, ev)
			if st.maxBatch > 0 && len(st.batch) >= st.maxBatch {
				st.i++
				return st.batch
			}
			continue
		}
		if len(st.batch) > 0 {
			return st.batch // drain before any state mutation
		}
		st.AdvanceTo(ev.Time)
		st.applyState(evs, ev)
	}
	if len(st.batch) > 0 {
		return st.batch
	}
	return nil
}

// applyState applies one non-query event (plus, for a content-batching
// scheme, the rest of its same-node same-second run) and notifies the
// scheme. It may consume extra events by moving st.i forward.
func (st *Stepper) applyState(evs []trace.Event, ev *trace.Event) {
	if st.batcher != nil && (ev.Kind == trace.ContentAdd || ev.Kind == trace.ContentRemove) {
		if run := trace.ContentRun(evs, st.i); run > 1 {
			// Coalesce the run: apply every system mutation, then
			// notify the scheme once at the run's last event time.
			st.runDocs, st.runAdded = st.runDocs[:0], st.runAdded[:0]
			for j := st.i; j < st.i+run; j++ {
				e := &evs[j]
				st.sys.ApplyEvent(e)
				st.runDocs = append(st.runDocs, e.Doc)
				st.runAdded = append(st.runAdded, e.Kind == trace.ContentAdd)
			}
			st.batcher.ContentChangedBatch(evs[st.i+run-1].Time, ev.Node, st.runDocs, st.runAdded)
			st.i += run - 1
			return
		}
	}
	ApplyStateEvent(st.sys, st.sch, ev)
}

// ApplyStateEvent applies one non-query trace event to the system and
// notifies the scheme — the single-event core of the stepper's state
// application, shared with the serving plane's live driver
// (internal/serve), which applies churn and content events one at a time
// between query bursts instead of batch-stepping a whole trace.
func ApplyStateEvent(sys *System, sch Scheme, ev *trace.Event) {
	sys.ApplyEvent(ev)
	switch ev.Kind {
	case trace.ContentAdd:
		sch.ContentChanged(ev.Time, ev.Node, ev.Doc, true)
	case trace.ContentRemove:
		sch.ContentChanged(ev.Time, ev.Node, ev.Doc, false)
	case trace.Join:
		sch.NodeJoined(ev.Time, ev.Node)
	case trace.Leave:
		sch.NodeLeft(ev.Time, ev.Node)
	}
}

// Record books one query outcome into the run's ledger — the sequential
// replay's exact call sequence when invoked in trace order.
func (st *Stepper) Record(ev *trace.Event, r metrics.SearchResult) {
	st.sys.Load.Search(ev.Time, r)
}

// Finish fills the remaining seconds so the load series covers the full
// span and returns the run's summary.
func (st *Stepper) Finish() metrics.Summary {
	st.AdvanceTo(int64(st.sys.Load.Seconds()) * 1000)
	st.rec.SampleHeap()
	return metrics.Summarize(st.sch.Name(), st.sys.G.Kind().String(), st.sys.Load, st.sch.LoadMask())
}
