package metrics

import (
	"fmt"
	"math"
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

// LoadAccount buckets accounted bytes into one-second bins per message
// class. It has a single writer — the goroutine replaying the run books
// every message — so its counters are plain integers; a bucket is an
// order-free sum, exact whatever order the messages are booked in. It is
// not safe for concurrent use.
type LoadAccount struct {
	seconds int
	cells   []int64 // seconds × NumMsgClasses
	warm    [NumMsgClasses]int64
	live    []int32 // live peers at each second

	// Fault-plane event counters: messages the network dropped, retries
	// those drops provoked, and contacts given up on after every attempt
	// failed.
	drops    int64
	retries  int64
	timeouts int64
}

// NewLoadAccount sizes an account for the given experiment duration in
// seconds. Bytes accounted past the end are folded into the final bucket.
func NewLoadAccount(seconds int) *LoadAccount {
	if seconds < 1 {
		seconds = 1
	}
	return &LoadAccount{
		seconds: seconds,
		cells:   make([]int64, seconds*NumMsgClasses),
		live:    make([]int32, seconds),
	}
}

// Seconds returns the number of one-second buckets.
func (a *LoadAccount) Seconds() int { return a.seconds }

// Add accounts bytes of class c at virtual time tMS (milliseconds).
// Negative times (warm-up traffic, before the trace starts) go to the
// warm-up counters, which are excluded from the per-second series.
func (a *LoadAccount) Add(tMS int64, c MsgClass, bytes int) {
	if bytes == 0 {
		return
	}
	if tMS < 0 {
		a.warm[c] += int64(bytes)
		return
	}
	sec := int(tMS / 1000)
	if sec >= a.seconds {
		sec = a.seconds - 1
	}
	a.cells[sec*NumMsgClasses+int(c)] += int64(bytes)
}

// SetLive records the number of live peers during second sec. Seconds at
// or past the end update the final bucket — the same fold Add applies —
// so the horizon second's bytes divide by the live count that produced
// them instead of a silently stale one.
func (a *LoadAccount) SetLive(sec, n int) {
	if sec < 0 {
		return
	}
	if sec >= a.seconds {
		sec = a.seconds - 1
	}
	a.live[sec] = int32(n)
}

// CountDrop records one message lost to the fault plane.
func (a *LoadAccount) CountDrop() { a.drops++ }

// CountRetry records one retransmission provoked by a timeout.
func (a *LoadAccount) CountRetry() { a.retries++ }

// CountTimeout records one contact abandoned after its last attempt.
func (a *LoadAccount) CountTimeout() { a.timeouts++ }

// FaultCounts returns the fault-plane event totals.
func (a *LoadAccount) FaultCounts() (drops, retries, timeouts int64) {
	return a.drops, a.retries, a.timeouts
}

// Live returns the recorded live-peer count for second sec.
func (a *LoadAccount) Live(sec int) int { return int(a.live[sec]) }

// BytesAt returns the bytes of classes in mask accounted during second sec.
func (a *LoadAccount) BytesAt(sec int, mask ClassMask) int64 {
	total := int64(0)
	row := a.cells[sec*NumMsgClasses : (sec+1)*NumMsgClasses]
	for c := 0; c < NumMsgClasses; c++ {
		if mask.Has(MsgClass(c)) {
			total += row[c]
		}
	}
	return total
}

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
func (a *LoadAccount) WarmupBytes(mask ClassMask) int64 {
	total := int64(0)
	for c := 0; c < NumMsgClasses; c++ {
		if mask.Has(MsgClass(c)) {
			total += a.warm[c]
		}
	}
	return total
}

// ByClass returns per-class byte totals over the run (warm-up excluded).
func (a *LoadAccount) ByClass() [NumMsgClasses]int64 {
	var out [NumMsgClasses]int64
	for s := 0; s < a.seconds; s++ {
		row := a.cells[s*NumMsgClasses : (s+1)*NumMsgClasses]
		for c := 0; c < NumMsgClasses; c++ {
			out[c] += row[c]
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
