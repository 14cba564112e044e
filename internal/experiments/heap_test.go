package experiments

import (
	"testing"

	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// smallPeakHeapBudgetMB bounds the live-heap high-water mark of one
// small-scale asap-rw replay. The observed peak is 18–23 MB (18.4–19.3 MB
// on a 2-vCPU host; lab inputs included; the gauge reads heap bytes between
// collections, so runs differ by what garbage happens to be outstanding).
// The budget is 1.5× the upper end: enough for GC timing and allocator
// noise, tight enough that the per-node creep the gate exists for — a
// second index, a grow-only table pinned at its high-water mark — fails
// it (the per-node hash tables the source-major index replaced put the
// same replay at 28–30 MB).
const smallPeakHeapBudgetMB = 34

// TestSmallReplayPeakHeapBound is the mem-gate (make mem-gate): replay
// asap-rw on the crawled overlay at small scale with the heap gauge
// attached, and require the peak stays inside the budget — and that the
// gauge actually sampled something, so the gate can never pass vacuously.
func TestSmallReplayPeakHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale replay in -short mode")
	}
	lab, err := NewLab(ScaleSmall())
	if err != nil {
		t.Fatalf("lab: %v", err)
	}
	sch, err := lab.NewScheme("asap-rw")
	if err != nil {
		t.Fatal(err)
	}
	gauge := obs.NewHeapGauge()
	rec := obs.NewRecorder(0)
	rec.SetHeapGauge(gauge)
	sys := sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, lab.Scale.Seed)
	sys.SetObs(rec)
	sim.Run(sys, sch, sim.RunOptions{})
	peak := gauge.PeakMB()
	if peak <= 0 {
		t.Fatal("heap gauge recorded no samples")
	}
	if peak > smallPeakHeapBudgetMB {
		t.Fatalf("peak live heap %.1f MB exceeds the %d MB budget", peak, smallPeakHeapBudgetMB)
	}
	t.Logf("peak live heap: %.1f MB (budget %d MB)", peak, smallPeakHeapBudgetMB)
}
