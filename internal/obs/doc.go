// Package obs is the simulator's deterministic observability plane.
//
// It has two layers, both optional and both inert when absent:
//
//   - Sim-time series: a Recorder keeps per-second (simulated clock, never
//     wall clock) counters for message classes, ads-cache hits and misses,
//     confirmation outcomes, fault-plane events and search outcomes. After
//     a run, Recorder.Series joins those counters with the LoadAccount's
//     per-class byte series into one RunSeries table, emitted as CSV and
//     JSON (WriteDir). Because every counter is keyed by deterministic
//     replay time and updated with commutative atomic adds, the series is
//     byte-identical for any worker count. Wall clock is inherently
//     nondeterministic, so it never feeds into a RunSeries.
//
//   - Profiling hooks: StartProfiles wires -cpuprofile/-memprofile/
//     -mutexprofile files and an optional net/http/pprof endpoint for the
//     CLIs.
//
// Nil-safety mirrors internal/faults: every Recorder method is valid on a
// nil receiver and does nothing, so instrumented hot paths cost one nil
// check — zero allocations — when observability is off (gated by
// TestObsOffHotPathAllocs in the root package).
package obs
