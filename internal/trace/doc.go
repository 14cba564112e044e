// Package trace builds the synthetic query/churn trace the paper's
// simulator replays (§IV-B).
//
// The paper constructs its trace from the eDonkey content snapshot in six
// steps; Build mirrors them:
//
//  1. randomly select 10,000 of the universe's peers (plus a reserve pool
//     for the join events) — all other peers and contents are ignored;
//  2. document classification into 14 categories comes with the universe;
//  3. peer interests and ad topics likewise;
//  4. create 30,000 search requests, 10% of which are followed by a
//     content change (a document addition or removal); emulate network
//     dynamics by inserting 1,000 node-join and 1,000 node-departure
//     events at random positions;
//  5. stamp each query with a Poisson arrival time, λ = 8 requests/second;
//  6. feed the trace to each testing system and replay.
//
// Every query is generated so that "there is at least one matching
// document existing in the system at the request time" — the builder
// tracks node liveness and per-node contents while generating, and only
// emits a query whose target document has a live holder other than the
// requester. A query asks only for documents in the requester's interest
// classes ("a peer only asks for interesting documents").
//
// The trace is a flat, deterministic event list; the simulator replays it
// while maintaining the identical state evolution, so generation-time
// satisfiability holds at replay time too.
package trace
