// Package search implements the paper's baseline query-based search
// algorithms (§IV-A):
//
//   - Flooding — the query is forwarded to every neighbour with TTL 6 and
//     duplicate suppression; every node holding a matching document replies
//     directly to the requester.
//   - RandomWalk — 5 walkers, each with TTL 1024 (Lv et al. [21]); a
//     walker checks back with the requester every few steps and terminates
//     once the query is resolved, the standard "checking" termination.
//   - GSA — the generalized search algorithm of Gkantsidis et al. [12]
//     ("hybrid search schemes"): a one-hop flood seeds one walker per
//     neighbour, and the whole query is limited by a total message budget
//     of 8,000.
//
// Because queries do not interact (see package sim), each Search call
// simulates its own message cascade over a snapshot of the live overlay:
// flooding is a time-ordered relaxation over a per-millisecond bucket
// queue (each copy sent is one query message; a node acts on the copy that
// arrives earliest, then was sent earliest), walks are stepwise
// traversals. Per-query scratch state (node marks, the queue, walker
// paths) is owned by the scheme and reused by every query, and every
// message is booked on the load account as it is sent. The fault plane
// sees every message by its identity, never a counter — a flood copy
// (query, edge), a hit reply (query, holder → requester, walker), a walk
// step (query, walker, step), a check-back leg (query, walker, step, leg)
// — and a walker's hop is choice (query ⊕ seed, walker, step) of
// faults.Choose, so no verdict and no path depends on the order a cascade
// or its walkers are processed in.
//
// Cost accounting follows §V-B exactly: for baselines, both the per-search
// cost (Fig. 6) and the system load (Figs. 8–10) count query messages
// only; replies and walker check-backs are accounted under separate
// message classes that the baseline load mask excludes.
package search
