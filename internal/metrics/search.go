package metrics

import (
	"fmt"
	"sort"
)

// SearchResult is the outcome of one simulated search request.
type SearchResult struct {
	Success    bool
	ResponseMS int64 // requester-observed latency of the first result
	Bytes      int64 // per-search cost under the scheme's cost definition
	Hops       int   // overlay hops to the first result (1 = one-hop)
	Hits       int   // distinct sources that answered positively
}

// SearchStats aggregates SearchResults. It is not safe for concurrent use:
// the replay records every outcome from one goroutine.
type SearchStats struct {
	total     int
	successes int
	respSum   int64
	bytesSum  int64
	hopsSum   int64
	hitsSum   int64
	oneHop    int
	latencies []int32 // successful response times, for percentiles
}

// Record adds one search outcome.
func (s *SearchStats) Record(r SearchResult) {
	s.total++
	s.bytesSum += r.Bytes
	if r.Success {
		s.successes++
		s.respSum += r.ResponseMS
		s.hopsSum += int64(r.Hops)
		s.hitsSum += int64(r.Hits)
		if r.Hops <= 1 {
			s.oneHop++
		}
		s.latencies = append(s.latencies, int32(r.ResponseMS))
	}
}

// Total returns the number of recorded searches.
func (s *SearchStats) Total() int {
	return s.total
}

// SuccessRate returns the fraction of searches with ≥1 result.
func (s *SearchStats) SuccessRate() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.successes) / float64(s.total)
}

// MeanResponseMS returns the mean response time over successful searches
// (the paper averages "among all successful search requests").
func (s *SearchStats) MeanResponseMS() float64 {
	if s.successes == 0 {
		return 0
	}
	return float64(s.respSum) / float64(s.successes)
}

// MeanBytes returns the mean per-search bandwidth cost over all searches.
func (s *SearchStats) MeanBytes() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.bytesSum) / float64(s.total)
}

// MeanHops returns the mean overlay hop count of first results.
func (s *SearchStats) MeanHops() float64 {
	if s.successes == 0 {
		return 0
	}
	return float64(s.hopsSum) / float64(s.successes)
}

// MeanHits returns the mean number of positive sources per successful
// search (≥1; larger when searches demand multiple results).
func (s *SearchStats) MeanHits() float64 {
	if s.successes == 0 {
		return 0
	}
	return float64(s.hitsSum) / float64(s.successes)
}

// OneHopRate returns the fraction of successful searches resolved in a
// single hop — ASAP's headline property.
func (s *SearchStats) OneHopRate() float64 {
	if s.successes == 0 {
		return 0
	}
	return float64(s.oneHop) / float64(s.successes)
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of successful response
// times in milliseconds.
func (s *SearchStats) Percentile(p float64) int64 {
	if len(s.latencies) == 0 {
		return 0
	}
	sorted := append([]int32(nil), s.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return int64(sorted[idx])
}

func (s *SearchStats) String() string {
	return fmt.Sprintf("search{n=%d success=%.1f%% resp=%.0fms cost=%.0fB}",
		s.Total(), s.SuccessRate()*100, s.MeanResponseMS(), s.MeanBytes())
}

// Summary is the flattened result of one scheme × topology run: one bar in
// each of the paper's comparison figures.
type Summary struct {
	Scheme   string
	Topology string

	Requests    int
	SuccessRate float64 // Fig. 4
	MeanRespMS  float64 // Fig. 5
	P95RespMS   int64
	MeanHops    float64
	MeanHits    float64
	OneHopRate  float64

	MeanSearchBytes float64 // Fig. 6

	LoadMeanKBps float64 // Fig. 8
	LoadStdKBps  float64 // Fig. 9

	Breakdown  [NumMsgClasses]float64 // Fig. 7 (ASAP schemes)
	LoadSeries []float64              // Fig. 10

	WarmupBytes int64 // ad pre-distribution cost, excluded from load

	// Fault-plane event totals; all zero on a reliable network.
	Drops    int64
	Retries  int64
	Timeouts int64
}

// Summarize combines search stats and load accounting into a Summary.
func Summarize(scheme, topology string, ss *SearchStats, la *LoadAccount, loadMask ClassMask) Summary {
	mean, std := la.MeanStd(loadMask)
	drops, retries, timeouts := la.FaultCounts()
	return Summary{
		Scheme:          scheme,
		Topology:        topology,
		Requests:        ss.Total(),
		SuccessRate:     ss.SuccessRate(),
		MeanRespMS:      ss.MeanResponseMS(),
		P95RespMS:       ss.Percentile(0.95),
		MeanHops:        ss.MeanHops(),
		MeanHits:        ss.MeanHits(),
		OneHopRate:      ss.OneHopRate(),
		MeanSearchBytes: ss.MeanBytes(),
		LoadMeanKBps:    mean,
		LoadStdKBps:     std,
		Breakdown:       la.Breakdown(loadMask),
		LoadSeries:      la.Series(loadMask),
		WarmupBytes:     la.WarmupBytes(AllMask),
		Drops:           drops,
		Retries:         retries,
		Timeouts:        timeouts,
	}
}
