package sim

import (
	"sync"

	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// The sharded replay engine partitions the overlay's node ID space into S
// contiguous ranges (overlay.Sharding) and replays each query batch as a
// parallel intra-shard phase followed by an epoch barrier that drains the
// batch's cross-shard work in deterministic trace order. Outputs are
// byte-identical to the sequential replay at every shard count,
// including S=1, because the engine only ever reorders query pairs it has
// proven commutative:
//
//   - Each query is planned on the runner thread, in trace order, into
//     either its owner shard's lane or the barrier's deferred queue. A
//     lane replays its queries sequentially, in trace order.
//   - A query is deferred exactly when it conflicts with an earlier query
//     in a different lane (or one already deferred): its written state is
//     read or written by the other, or vice versa. Every surviving
//     cross-lane pair therefore commutes, and the deferred queue replays
//     after all lanes join, still in trace order.
//   - Search outcomes land in a per-batch results array indexed by trace
//     position; the runner folds them into the metrics and observability
//     accumulators sequentially, in trace order, after the barrier — the
//     exact call sequence of the sequential replay.
//
// Schemes declare their data-flow shape through two optional interfaces.
// PureSearcher marks schemes whose Search writes no scheme state at all
// (the stateless baselines); their queries never conflict and lane
// placement is pure load spreading. SearchSharder exposes ASAP's shape:
// one written node (the requester's representative) plus a bounded read
// neighbourhood, which is what the conflict plan consumes.

// SearchSharder is an optional Scheme extension for stateful schemes whose
// per-query writes are confined to a single owner node. Implementing it
// enables sharded replay (RunOptions.Shards).
type SearchSharder interface {
	// SearchOwner returns the node whose scheme state Search(ev) may
	// mutate when ev.Node == n, or a negative ID when the query touches no
	// scheme state at all (e.g. a detached hierarchical leaf).
	SearchOwner(n overlay.NodeID) overlay.NodeID
	// AppendSearchReads appends every node whose scheme state Search may
	// read for a query owned by owner — the owner itself plus its
	// request neighbourhood — and returns the extended buffer. A
	// conservative superset is correct; a missed node is not.
	AppendSearchReads(owner overlay.NodeID, buf []overlay.NodeID) []overlay.NodeID
}

// PureSearcher is an optional Scheme extension marking schemes whose
// Search neither reads nor writes scheme-owned mutable state: the outcome
// is a pure function of the batch-frozen system state and the query event.
// Pure queries never conflict, so sharded replay fans them out freely.
type PureSearcher interface {
	PureSearch()
}

// QueryPhaser is an optional Scheme extension: the sharded engine brackets
// every parallel intra-shard phase with BeginQueryPhase/EndQueryPhase so
// the scheme can extend its single-writer assertions — ASAP's delivery
// seqlock panics on any delivery write opened while a query phase is live,
// turning a runner-barrier breach into an immediate failure instead of
// silent corruption.
type QueryPhaser interface {
	BeginQueryPhase()
	EndQueryPhase()
}

// deferredBit marks a node as touched by a barrier-deferred query in the
// per-batch lane masks. It is disjoint from every lane bit (lanes occupy
// bits [0, MaxShards)), so later queries conflicting with deferred work
// are themselves deferred, preserving their relative trace order.
const deferredBit = uint64(1) << overlay.MaxShards

// shardDispatcher executes query batches for one run under the sharded
// discipline. It is created per Run and used from the runner thread only;
// the lane goroutines it spawns live for a single batch.
type shardDispatcher struct {
	sch     Scheme
	sharder SearchSharder // nil for pure schemes
	phaser  QueryPhaser   // nil when the scheme has no phase hooks
	sh      overlay.Sharding

	// Per-batch planning state, epoch-stamped so no per-batch clearing of
	// the node-indexed tables is needed.
	epoch     uint32
	stamp     []uint32 // node → epoch the masks below are valid for
	readMask  []uint64 // node → lanes that read it this batch
	writeMask []uint64 // node → lanes that wrote it this batch

	lanes    [][]int32 // shard → query indexes, in trace order
	deferred []int32   // barrier queue, in trace order
	readBuf  []overlay.NodeID
	results  []metrics.SearchResult
}

// newShardDispatcher returns a dispatcher for sch over n nodes in shards
// lanes, or nil when the scheme declares no shardable search shape — the
// caller then replays sequentially.
func newShardDispatcher(sch Scheme, n, shards int) *shardDispatcher {
	d := &shardDispatcher{sch: sch, sh: overlay.NewSharding(n, shards)}
	d.sharder, _ = sch.(SearchSharder)
	if d.sharder == nil {
		if _, pure := sch.(PureSearcher); !pure {
			return nil
		}
	}
	d.phaser, _ = sch.(QueryPhaser)
	d.stamp = make([]uint32, n)
	d.readMask = make([]uint64, n)
	d.writeMask = make([]uint64, n)
	d.lanes = make([][]int32, d.sh.NumShards())
	return d
}

// masks returns node's per-batch read and write lane masks, resetting them
// on first touch this batch.
func (d *shardDispatcher) masks(node overlay.NodeID) (*uint64, *uint64) {
	if d.stamp[node] != d.epoch {
		d.stamp[node] = d.epoch
		d.readMask[node] = 0
		d.writeMask[node] = 0
	}
	return &d.readMask[node], &d.writeMask[node]
}

// runBatch plans, executes and folds one query batch. See the package
// comment above for the equivalence argument.
func (d *shardDispatcher) runBatch(batch []*trace.Event, st *Stepper) {
	// Plan: walk the batch in trace order, landing each query in its
	// owner's lane unless it conflicts with earlier cross-lane work.
	d.epoch++
	if d.epoch == 0 { // wrapped: invalidate all stamps once per 2^32 batches
		clear(d.stamp)
		d.epoch = 1
	}
	for i := range d.lanes {
		d.lanes[i] = d.lanes[i][:0]
	}
	d.deferred = d.deferred[:0]
	if cap(d.results) < len(batch) {
		d.results = make([]metrics.SearchResult, len(batch))
	}
	results := d.results[:len(batch)]

	for i, ev := range batch {
		if d.sharder == nil {
			// Pure scheme: no conflicts exist; spread by requester range.
			d.lanes[d.sh.ShardOf(ev.Node)] = append(d.lanes[d.sh.ShardOf(ev.Node)], int32(i))
			continue
		}
		owner := d.sharder.SearchOwner(ev.Node)
		if owner < 0 {
			// The query touches no scheme state: pure by construction.
			d.lanes[d.sh.ShardOf(ev.Node)] = append(d.lanes[d.sh.ShardOf(ev.Node)], int32(i))
			continue
		}
		reads := d.sharder.AppendSearchReads(owner, d.readBuf[:0])
		d.readBuf = reads
		lane := d.sh.ShardOf(owner)
		bit := uint64(1) << lane

		// Conflict iff an earlier query in another lane (or the barrier)
		// read or wrote this query's written node, or wrote any node this
		// query reads. Read-read overlap commutes and does not defer.
		ownerR, ownerW := d.masks(owner)
		foreign := (*ownerR | *ownerW) &^ bit
		for _, r := range reads {
			_, w := d.masks(r)
			foreign |= *w &^ bit
		}
		if foreign != 0 {
			bit = deferredBit
			d.deferred = append(d.deferred, int32(i))
		} else {
			d.lanes[lane] = append(d.lanes[lane], int32(i))
		}
		*ownerW |= bit
		for _, r := range reads {
			rm, _ := d.masks(r)
			*rm |= bit
		}
	}

	// Parallel intra-shard phase: one goroutine per non-empty lane, each
	// replaying its queries sequentially in trace order.
	if d.phaser != nil {
		d.phaser.BeginQueryPhase()
	}
	var wg sync.WaitGroup
	for _, lane := range d.lanes {
		if len(lane) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx []int32) {
			defer wg.Done()
			for _, i := range idx {
				results[i] = d.sch.Search(batch[i])
			}
		}(lane)
	}
	wg.Wait()

	// Epoch barrier: drain the cross-shard queue in trace order on the
	// runner thread, then fold every outcome sequentially — the sequential
	// replay's exact accumulator call sequence.
	for _, i := range d.deferred {
		results[i] = d.sch.Search(batch[i])
	}
	if d.phaser != nil {
		d.phaser.EndQueryPhase()
	}
	for i, ev := range batch {
		st.Record(ev, results[i])
	}
}
