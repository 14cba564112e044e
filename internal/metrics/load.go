package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// MsgClass labels every byte the simulator accounts, so load can be
// aggregated per the paper's per-scheme definitions.
type MsgClass uint8

const (
	// MQuery is a baseline query/walk message.
	MQuery MsgClass = iota
	// MQueryHit is a baseline reply to the requester. The paper's load and
	// cost metrics count "query messages only" for baselines, so this class
	// is tracked for diagnostics but excluded from their masks.
	MQueryHit
	// MConfirm is an ASAP content-confirmation message or its reply.
	MConfirm
	// MAdsRequest is an ASAP ads-request message or its reply.
	MAdsRequest
	// MAdFull is a full-ad delivery message.
	MAdFull
	// MAdPatch is a patch-ad delivery message.
	MAdPatch
	// MAdRefresh is a refresh-ad delivery message.
	MAdRefresh
	// MControl is auxiliary traffic: walker check-backs, full-ad
	// re-requests after a version gap.
	MControl

	// NumMsgClasses is the number of message classes.
	NumMsgClasses = 8
)

// String returns the class label.
func (c MsgClass) String() string {
	switch c {
	case MQuery:
		return "query"
	case MQueryHit:
		return "query-hit"
	case MConfirm:
		return "confirm"
	case MAdsRequest:
		return "ads-request"
	case MAdFull:
		return "ad-full"
	case MAdPatch:
		return "ad-patch"
	case MAdRefresh:
		return "ad-refresh"
	case MControl:
		return "control"
	default:
		return "invalid"
	}
}

// ClassMask selects which message classes an aggregate includes.
type ClassMask uint16

// Mask builds a ClassMask from classes.
func Mask(classes ...MsgClass) ClassMask {
	var m ClassMask
	for _, c := range classes {
		m |= 1 << c
	}
	return m
}

// Has reports whether the mask includes c.
func (m ClassMask) Has(c MsgClass) bool { return m&(1<<c) != 0 }

// Standard masks for the paper's metrics.
var (
	// BaselineLoadMask counts "all the query messages" (§V-B).
	BaselineLoadMask = Mask(MQuery)
	// ASAPLoadMask counts "all ad delivery messages … in addition to the
	// search-related traffics including content confirmation and ads
	// request messages" (§V-B).
	ASAPLoadMask = Mask(MConfirm, MAdsRequest, MAdFull, MAdPatch, MAdRefresh, MControl)
	// AllMask selects everything.
	AllMask = ClassMask(1<<NumMsgClasses - 1)
)

// Event enumerates the per-second event columns of the ledger: fault-plane
// events, cache and confirmation outcomes, search counts and scenario acts.
type Event uint8

const (
	// CDrop counts messages the fault plane dropped.
	CDrop Event = iota
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
	// CSearch counts query events replayed (booked by Search).
	CSearch
	// CSearchOK counts query events that returned at least one result
	// (booked by Search).
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

	// NumEvents is the number of event columns.
	NumEvents = iota
)

// eventLabels are the event columns' labels, in Event order.
var eventLabels = [NumEvents]string{"drops", "retries", "timeouts", "cache_hits", "cache_misses",
	"confirm_pos", "confirm_neg", "searches", "successes", "part_drops", "rewires", "interest_shifts"}

// String returns the column label of e.
func (e Event) String() string {
	if e < NumEvents {
		return eventLabels[e]
	}
	return "invalid"
}

// A ledger row holds, in order: bytes per class, the event counters,
// message copies per class, the latency sum of successful searches and the
// per-search cost sum.
const (
	colBytes       = 0
	colEvents      = colBytes + NumMsgClasses
	colCopies      = colEvents + NumEvents
	colLatency     = colCopies + NumMsgClasses
	colSearchBytes = colLatency + 1
	rowWidth       = colSearchBytes + 1
)

// Columns returns the labels of a ledger row (see Row), in order.
func Columns() []string {
	cols := make([]string, 0, rowWidth)
	for c := MsgClass(0); c < NumMsgClasses; c++ {
		cols = append(cols, "bytes_"+c.String())
	}
	for e := Event(0); e < NumEvents; e++ {
		cols = append(cols, e.String())
	}
	for c := MsgClass(0); c < NumMsgClasses; c++ {
		cols = append(cols, "msgs_"+c.String())
	}
	return append(cols, "latency_sum_ms", "search_bytes")
}

// HistBuckets is the number of log2 response-latency histogram buckets:
// bucket i holds successful searches with response time in [2^(i-1), 2^i)
// ms (bucket 0 is 0 ms); the last bucket absorbs everything ≥ 2^19 ms.
const HistBuckets = 21

// LoadAccount is a run's one ledger: every message sent, every event and
// every search outcome is booked into it once, by virtual time. It keeps a
// warm-up row (t < 0) and one row per second; times at or past the horizon
// fold into the final row. Per run it also keeps the live-peer count of
// each second, the log2 latency histogram, the hop, hit and one-hop sums of
// successful searches and their latencies (for percentiles).
//
// It has a single writer — the goroutine replaying the run, or the serving
// node's writer under its lock — so every booking is a plain add; a cell
// is an order-free sum, exact whatever order the bookings arrive in. It is
// not safe for concurrent use.
type LoadAccount struct {
	seconds int
	rows    []int64 // (seconds+1) × rowWidth; row 0 is warm-up
	live    []int32 // live peers at each second

	hist   [HistBuckets]int64
	hops   int64
	hits   int64
	oneHop int64
	lat    []int32 // successful response times, for percentiles
}

// NewLoadAccount sizes a ledger for the given experiment duration in
// seconds.
func NewLoadAccount(seconds int) *LoadAccount {
	if seconds < 1 {
		seconds = 1
	}
	return &LoadAccount{
		seconds: seconds,
		rows:    make([]int64, (seconds+1)*rowWidth),
		live:    make([]int32, seconds),
	}
}

// Seconds returns the number of one-second rows.
func (a *LoadAccount) Seconds() int { return a.seconds }

// at returns the offset of the row virtual time tMS (milliseconds) books
// into: the warm-up row for negative times, else its second's row, with
// seconds at or past the horizon folded into the final one.
func (a *LoadAccount) at(tMS int64) int {
	if tMS < 0 {
		return 0
	}
	return (1 + min(int(tMS/1000), a.seconds-1)) * rowWidth
}

// Send books copies message copies of class c carrying bytes in total, sent
// at virtual time tMS. A message counts whether or not it arrives.
func (a *LoadAccount) Send(tMS int64, c MsgClass, bytes, copies int) {
	r := a.rows[a.at(tMS):]
	r[colBytes+int(c)] += int64(bytes)
	r[colCopies+int(c)] += int64(copies)
}

// Count books one event e at virtual time tMS.
func (a *LoadAccount) Count(tMS int64, e Event) { a.rows[a.at(tMS)+colEvents+int(e)]++ }

// CountN books n events e at virtual time tMS.
func (a *LoadAccount) CountN(tMS int64, e Event, n int) {
	a.rows[a.at(tMS)+colEvents+int(e)] += int64(n)
}

// Search books one query issued at virtual time tMS and its outcome.
func (a *LoadAccount) Search(tMS int64, res SearchResult) {
	r := a.rows[a.at(tMS):]
	r[colEvents+int(CSearch)]++
	r[colSearchBytes] += res.Bytes
	if !res.Success {
		return
	}
	r[colEvents+int(CSearchOK)]++
	r[colLatency] += res.ResponseMS
	a.hist[min(bits.Len64(uint64(max(res.ResponseMS, 0))), HistBuckets-1)]++
	a.hops += int64(res.Hops)
	a.hits += int64(res.Hits)
	if res.Hops <= 1 {
		a.oneHop++
	}
	a.lat = append(a.lat, int32(res.ResponseMS))
}

// SetLive records the number of live peers during second sec. Seconds at
// or past the end update the final row — the fold every booking applies —
// so the horizon second's bytes divide by the live count that produced
// them instead of a silently stale one.
func (a *LoadAccount) SetLive(sec, n int) {
	if sec < 0 {
		return
	}
	a.live[min(sec, a.seconds-1)] = int32(n)
}

// Live returns the recorded live-peer count for second sec.
func (a *LoadAccount) Live(sec int) int { return int(a.live[sec]) }

// Row returns the cells of second sec in Columns order, or the warm-up row
// for sec = -1. The slice is a view into the ledger.
func (a *LoadAccount) Row(sec int) []int64 {
	off := (sec + 1) * rowWidth
	return a.rows[off : off+rowWidth : off+rowWidth]
}

// column sums column col over every row, warm-up included.
func (a *LoadAccount) column(col int) int64 {
	total := int64(0)
	for off := col; off < len(a.rows); off += rowWidth {
		total += a.rows[off]
	}
	return total
}

// Total returns the run total of event e, warm-up included.
func (a *LoadAccount) Total(e Event) int64 { return a.column(colEvents + int(e)) }

// Copies returns the run total of message copies of class c, warm-up
// included.
func (a *LoadAccount) Copies(c MsgClass) int64 { return a.column(colCopies + int(c)) }

// SearchSums returns the run totals of the per-search cost in bytes and of
// the response latency of successful searches in milliseconds.
func (a *LoadAccount) SearchSums() (bytes, latencyMS int64) {
	return a.column(colSearchBytes), a.column(colLatency)
}

// Hist returns a copy of the log2 response-latency histogram of successful
// searches.
func (a *LoadAccount) Hist() []int64 { return slices.Clone(a.hist[:]) }

// masked sums the byte cells of row over the classes in mask.
func masked(row []int64, mask ClassMask) int64 {
	total := int64(0)
	for c := 0; c < NumMsgClasses; c++ {
		if mask.Has(MsgClass(c)) {
			total += row[colBytes+c]
		}
	}
	return total
}

// BytesAt returns the bytes of classes in mask accounted during second sec.
func (a *LoadAccount) BytesAt(sec int, mask ClassMask) int64 { return masked(a.Row(sec), mask) }

// TotalBytes returns all bytes of classes in mask over the whole run
// (warm-up excluded).
func (a *LoadAccount) TotalBytes(mask ClassMask) int64 {
	total := int64(0)
	for s := 0; s < a.seconds; s++ {
		total += a.BytesAt(s, mask)
	}
	return total
}

// WarmupBytes returns warm-up bytes of classes in mask.
func (a *LoadAccount) WarmupBytes(mask ClassMask) int64 { return masked(a.Row(-1), mask) }

// ByClass returns per-class byte totals over the run (warm-up excluded).
func (a *LoadAccount) ByClass() [NumMsgClasses]int64 {
	var out [NumMsgClasses]int64
	for s := 0; s < a.seconds; s++ {
		for c, b := range a.Row(s)[colBytes : colBytes+NumMsgClasses] {
			out[c] += b
		}
	}
	return out
}

// Series returns the per-node system load in KB/node/s for every second
// with at least one live peer — the paper's Fig. 10 series.
func (a *LoadAccount) Series(mask ClassMask) []float64 {
	out := make([]float64, 0, a.seconds)
	for s := 0; s < a.seconds; s++ {
		n := a.live[s]
		if n <= 0 {
			continue
		}
		out = append(out, float64(a.BytesAt(s, mask))/float64(n)/1024)
	}
	return out
}

// MeanStd returns the mean and population standard deviation of the
// per-node load series — Figs. 8 and 9.
func (a *LoadAccount) MeanStd(mask ClassMask) (mean, std float64) {
	series := a.Series(mask)
	if len(series) == 0 {
		return 0, 0
	}
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	for _, v := range series {
		d := v - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(series)))
}

// Breakdown returns each class's share of the masked byte total — Fig. 7.
func (a *LoadAccount) Breakdown(mask ClassMask) [NumMsgClasses]float64 {
	var out [NumMsgClasses]float64
	by := a.ByClass()
	total := int64(0)
	for c := 0; c < NumMsgClasses; c++ {
		if mask.Has(MsgClass(c)) {
			total += by[c]
		}
	}
	if total == 0 {
		return out
	}
	for c := 0; c < NumMsgClasses; c++ {
		if mask.Has(MsgClass(c)) {
			out[c] = float64(by[c]) / float64(total)
		}
	}
	return out
}

func (a *LoadAccount) String() string {
	mean, std := a.MeanStd(AllMask)
	return fmt.Sprintf("load{%ds mean=%.3f std=%.3f KB/node/s}", a.seconds, mean, std)
}
