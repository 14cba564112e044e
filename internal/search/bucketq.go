package search

import (
	"asap/internal/overlay"
	"asap/internal/sim"
)

// copyItem is one queued query copy; its arrival time is its bucket.
type copyItem struct {
	node, from overlay.NodeID // receiver, sender (reverse-path suppression)
	hop        int32          // hops taken so far
	next       int32          // 1 + arena index of the bucket's next copy; 0 ends it
}

// bucketQueue is the flood cascade's event queue: one FIFO list per
// millisecond since the query time t0, threaded through one item arena.
// Arrival times are integer ms and a copy is only ever sent at or after
// the time being drained (latency and jitter are ≥ 0), so a bucket never
// receives a push once pop has moved past it: push and pop are O(1) and
// the order is earliest arrival, then earliest sent. Popping the last copy
// of a bucket leaves its head 0, so a drained queue is already clear for
// the next query. The zero value is ready to use after reset.
type bucketQueue struct {
	items      []copyItem
	head, tail []int32 // per bucket: 1 + arena index of its first / last copy; head 0 = empty
	t0         sim.Clock
	cur, last  int // bucket being drained; highest bucket pushed to
}

// reset empties the queue for a query issued at t0, keeping capacity; only
// the buckets an abandoned drain left occupied are cleared.
func (q *bucketQueue) reset(t0 sim.Clock) {
	if q.cur <= q.last && q.last < len(q.head) {
		clear(q.head[q.cur : q.last+1])
	}
	q.items, q.t0, q.cur, q.last = q.items[:0], t0, 0, 0
}

// push queues a copy arriving at time t. A t before the bucket being
// drained is a caller bug (time ran backwards) and panics.
func (q *bucketQueue) push(t sim.Clock, it copyItem) {
	b := int(t - q.t0)
	if b < q.cur {
		panic("search: flood copy pushed into the past")
	}
	if b >= len(q.head) {
		q.head = append(q.head, make([]int32, b+1-len(q.head))...)
		q.tail = append(q.tail, make([]int32, b+1-len(q.tail))...)
	}
	it.next = 0
	q.items = append(q.items, it)
	i := int32(len(q.items))
	if q.head[b] == 0 {
		q.head[b] = i
	} else {
		q.items[q.tail[b]-1].next = i
	}
	q.tail[b] = i
	q.last = max(q.last, b)
}

// pop removes and returns the earliest copy and its arrival time; ok is
// false once the queue is empty.
func (q *bucketQueue) pop() (it copyItem, t sim.Clock, ok bool) {
	for ; q.cur <= q.last; q.cur++ {
		if i := q.head[q.cur]; i != 0 {
			it = q.items[i-1]
			q.head[q.cur] = it.next
			return it, q.t0 + sim.Clock(q.cur), true
		}
	}
	return copyItem{}, 0, false
}
