package obs

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
)

// heapMetric is the runtime/metrics gauge the high-water mark tracks: the
// bytes of live and dead heap objects plus unused reserved spans — the
// figure that actually bounds a replay's resident set, unlike
// runtime.MemStats deltas which miss what the GC is holding.
const heapMetric = "/memory/classes/heap/objects:bytes"

// HeapGauge tracks the peak observed heap occupancy of a run. Sampling is
// explicit (the replay runner samples once per simulated second and at
// phase boundaries) so the gauge costs nothing when absent: every method
// is valid and free on a nil receiver, and Sample allocates nothing after
// construction — the sample buffer is preallocated.
//
// One gauge may be shared across concurrent runs (RunMatrix cells): Sample
// serialises on an internal mutex and the peak folds through an atomic
// max, so the recorded high-water mark covers the whole process, which is
// what a memory bound must measure.
type HeapGauge struct {
	mu      sync.Mutex
	samples []metrics.Sample
	peak    atomic.Uint64
}

// NewHeapGauge returns a gauge ready to sample.
func NewHeapGauge() *HeapGauge {
	g := &HeapGauge{samples: make([]metrics.Sample, 1)}
	g.samples[0].Name = heapMetric
	return g
}

// Sample reads the current heap occupancy and folds it into the peak.
// Nil-safe and allocation-free.
func (g *HeapGauge) Sample() {
	if g == nil {
		return
	}
	g.mu.Lock()
	metrics.Read(g.samples)
	cur := g.samples[0].Value.Uint64()
	g.mu.Unlock()
	for {
		old := g.peak.Load()
		if cur <= old || g.peak.CompareAndSwap(old, cur) {
			return
		}
	}
}

// PeakBytes returns the largest heap occupancy any Sample observed
// (0 before the first sample, or on a nil gauge).
func (g *HeapGauge) PeakBytes() uint64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// PeakMB returns PeakBytes in mebibytes.
func (g *HeapGauge) PeakMB() float64 {
	return float64(g.PeakBytes()) / (1 << 20)
}

// Recorder carries a run's heap gauge to the replay, which samples it once
// per simulated second; it holds no counter (the run's ledger,
// metrics.LoadAccount, holds every count). A nil recorder samples nothing.
type Recorder struct {
	heap *HeapGauge
}

// NewRecorder returns a recorder without a gauge. The argument is unused.
func NewRecorder(int) *Recorder { return &Recorder{} }

// SetHeapGauge attaches a heap gauge to the recorder; SampleHeap calls
// forward to it. A nil gauge (or nil recorder) detaches sampling.
func (r *Recorder) SetHeapGauge(g *HeapGauge) {
	if r == nil {
		return
	}
	r.heap = g
}

// SampleHeap folds the current heap occupancy into the attached gauge's
// peak. On a nil recorder, or one without a gauge, it does nothing and
// allocates nothing.
func (r *Recorder) SampleHeap() {
	if r == nil {
		return
	}
	r.heap.Sample()
}
