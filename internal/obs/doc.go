// Package obs renders a run for inspection. It counts nothing itself: the
// run's one ledger, metrics.LoadAccount, holds every message, event and
// search outcome.
//
//   - Sim-time series: Series turns a finished run's ledger into one
//     RunSeries table — per simulated second (never wall clock), the live
//     count and the ledger's row — emitted as CSV and JSON (WriteDir). Rows
//     are keyed by deterministic replay time, so the series is
//     byte-identical for any worker count.
//
//   - Scrape surface: WriteProm renders the ledger's totals and latency
//     histogram in Prometheus text format through a PromWriter; the
//     serving plane adds its own wall-clock counters (WallHist).
//
//   - Profiling hooks: StartProfiles wires -cpuprofile/-memprofile/
//     -mutexprofile files and an optional net/http/pprof endpoint for the
//     CLIs; HeapGauge tracks a run's peak live heap, sampled through a
//     Recorder.
package obs
