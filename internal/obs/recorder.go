package obs

import (
	"math/bits"
	"sync/atomic"
	"time"

	"asap/internal/metrics"
)

// Counter enumerates the per-second event counters a Recorder keeps in
// addition to the per-class message counts.
type Counter int

const (
	// CDrop counts messages the fault plane dropped.
	CDrop Counter = iota
	// CRetry counts retransmissions provoked by timeouts.
	CRetry
	// CTimeout counts contacts abandoned after their last attempt.
	CTimeout
	// CCacheHit counts searches whose phase-1 ads-cache scan produced at
	// least one candidate.
	CCacheHit
	// CCacheMiss counts searches whose phase-1 scan produced none.
	CCacheMiss
	// CConfirmPos counts content confirmations answered positively.
	CConfirmPos
	// CConfirmNeg counts content confirmations answered negatively (Bloom
	// false positives and stale filters surface here).
	CConfirmNeg
	// CSearch counts query events replayed.
	CSearch
	// CSearchOK counts query events that returned at least one result.
	CSearchOK
	// CPartDrop counts messages dropped by an engaged scenario partition
	// (a subset of CDrop: partition drops count in both columns).
	CPartDrop
	// CRewire counts successful topology-adaptation rewires (one edge
	// dropped, one interest-similar edge added).
	CRewire
	// CInterestShift counts nodes whose interest classes an InterestDrift
	// act rotated.
	CInterestShift

	// cMsgBase is where the metrics.NumMsgClasses per-class message
	// counters start; they count message copies sent, per class.
	cMsgBase

	// NumCounters is the width of one per-second counter row.
	NumCounters = int(cMsgBase) + metrics.NumMsgClasses
)

// String returns the column label of c.
func (c Counter) String() string {
	switch c {
	case CDrop:
		return "drops"
	case CRetry:
		return "retries"
	case CTimeout:
		return "timeouts"
	case CCacheHit:
		return "cache_hits"
	case CCacheMiss:
		return "cache_misses"
	case CConfirmPos:
		return "confirm_pos"
	case CConfirmNeg:
		return "confirm_neg"
	case CSearch:
		return "searches"
	case CSearchOK:
		return "successes"
	case CPartDrop:
		return "part_drops"
	case CRewire:
		return "rewires"
	case CInterestShift:
		return "interest_shifts"
	}
	if c >= cMsgBase && int(c) < NumCounters {
		return "msgs_" + metrics.MsgClass(int(c)-int(cMsgBase)).String()
	}
	return "invalid"
}

// HistBuckets is the number of log2 response-latency histogram buckets:
// bucket i holds successful searches with response time in [2^(i-1), 2^i)
// ms (bucket 0 is 0 ms); the last bucket absorbs everything ≥ 2^19 ms.
const HistBuckets = 21

// Recorder accumulates one run's sim-time observability state. All
// recording methods are safe for concurrent use (atomic adds on
// preallocated cells) and valid on a nil receiver, where they do nothing
// and allocate nothing — the obs-off hot path.
//
// Rows follow the LoadAccount's bucketing exactly: row 0 holds warm-up
// events (t < 0), rows 1..seconds hold per-second counts, and times at or
// past the horizon fold into the final row.
type Recorder struct {
	seconds int
	cells   []int64 // (seconds+1) × NumCounters
	latMS   []int64 // per-row response-time sums of successful searches
	srchB   []int64 // per-row search-cost byte sums
	hist    [HistBuckets]int64
	timing  Timing
	heap    *HeapGauge // peak-heap high-water gauge (nil = sampling off)
}

// NewRecorder sizes a recorder for a run of the given duration in
// (simulated) seconds.
func NewRecorder(seconds int) *Recorder {
	if seconds < 1 {
		seconds = 1
	}
	return &Recorder{
		seconds: seconds,
		cells:   make([]int64, (seconds+1)*NumCounters),
		latMS:   make([]int64, seconds+1),
		srchB:   make([]int64, seconds+1),
	}
}

// Seconds returns the number of per-second rows (excluding warm-up).
func (r *Recorder) Seconds() int {
	if r == nil {
		return 0
	}
	return r.seconds
}

// row maps a virtual time in ms to its counter row: 0 for warm-up,
// otherwise 1 + the (horizon-folded) second.
func (r *Recorder) row(tMS int64) int {
	if tMS < 0 {
		return 0
	}
	sec := int(tMS / 1000)
	if sec >= r.seconds {
		sec = r.seconds - 1
	}
	return sec + 1
}

// Count records one event of counter c at virtual time tMS.
func (r *Recorder) Count(tMS int64, c Counter) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.cells[r.row(tMS)*NumCounters+int(c)], 1)
}

// CountMsg records one sent message copy of the given class at tMS.
func (r *Recorder) CountMsg(tMS int64, class metrics.MsgClass) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.cells[r.row(tMS)*NumCounters+int(cMsgBase)+int(class)], 1)
}

// CountMsgN records n sent message copies of the given class at tMS in
// one cell update. Cascades that send a whole neighbour view at the same
// virtual time batch their counting through this instead of paying one
// atomic add per copy; the resulting cells are identical.
func (r *Recorder) CountMsgN(tMS int64, class metrics.MsgClass, n int) {
	if r == nil || n == 0 {
		return
	}
	atomic.AddInt64(&r.cells[r.row(tMS)*NumCounters+int(cMsgBase)+int(class)], int64(n))
}

// Search records one replayed query: its issue time, outcome, observed
// response latency (successes only) and per-search cost in bytes.
func (r *Recorder) Search(tMS int64, ok bool, respMS int64, bytes int64) {
	if r == nil {
		return
	}
	row := r.row(tMS)
	atomic.AddInt64(&r.cells[row*NumCounters+int(CSearch)], 1)
	atomic.AddInt64(&r.srchB[row], bytes)
	if !ok {
		return
	}
	atomic.AddInt64(&r.cells[row*NumCounters+int(CSearchOK)], 1)
	atomic.AddInt64(&r.latMS[row], respMS)
	b := bits.Len64(uint64(max(respMS, 0)))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	atomic.AddInt64(&r.hist[b], 1)
}

// get reads one counter cell (test/series helper; not a hot path).
func (r *Recorder) get(row int, c Counter) int64 {
	return atomic.LoadInt64(&r.cells[row*NumCounters+int(c)])
}

// Begin starts a wall-clock span; pass the result to End. On a nil
// recorder it returns 0 and End discards the span.
func (r *Recorder) Begin() int64 {
	if r == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// End closes a wall-clock span opened by Begin, attributing the elapsed
// time to phase p.
func (r *Recorder) End(p Phase, start int64) {
	if r == nil {
		return
	}
	r.timing.add(p, time.Now().UnixNano()-start)
}

// Timing returns the recorder's accumulated per-phase wall-clock spans.
func (r *Recorder) Timing() *Timing {
	if r == nil {
		return nil
	}
	return &r.timing
}
