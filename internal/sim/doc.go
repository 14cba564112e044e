// Package sim is the trace-driven simulator of §IV: it owns the dynamic
// system state (who is live, who shares what), replays a trace against a
// pluggable search Scheme, and produces the metrics of §V.
//
// # Fidelity model
//
// The paper ignores queuing delay and Bloom-filter computation when
// calculating response times (§V-A): a message's delivery time is the sum
// of physical link latencies on its path and nothing else. A consequence
// this package exploits is that concurrently outstanding searches do not
// interact on the wire — each query's message cascade can be simulated on
// its own, given a fixed snapshot of system state.
//
// The runner therefore replays the trace, on one goroutine, as an
// alternation of
//
//   - state events (content changes, joins, departures), applied
//     sequentially in trace order, and
//   - query batches — maximal runs of consecutive Query events — executed
//     in trace order. Searches do interact through scheme state (an ASAP
//     search merges offered ads into the requester's cache, which later
//     searches read), so trace order is part of the result.
//
// The summary is a pure function of (system, scheme) at every GOMAXPROCS.
//
// # Message size model
//
// The paper reports bandwidth, not packet traces, so sizes are a fixed
// per-type model (sizes.go): an 80-byte header approximating IP+TCP+
// protocol framing, plus type-specific payloads — 4 bytes per query term,
// Bloom-filter wire bytes for full ads, changed-bit lists for patch ads,
// and a bare header for refresh ads. Full ads dwarf queries (≈1.5 KB vs
// ≈0.1 KB), exactly the relationship Fig. 7's discussion relies on.
package sim
