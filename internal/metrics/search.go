package metrics

import "slices"

// SearchResult is the outcome of one simulated search request.
type SearchResult struct {
	Success    bool
	ResponseMS int64 // requester-observed latency of the first result
	Bytes      int64 // per-search cost under the scheme's cost definition
	Hops       int   // overlay hops to the first result (1 = one-hop)
	Hits       int   // distinct sources that answered positively
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

// Summarize reads one run's Summary off its ledger. The fault-plane totals
// are column sums over every row, warm-up included.
func Summarize(scheme, topology string, la *LoadAccount, loadMask ClassMask) Summary {
	mean, std := la.MeanStd(loadMask)
	searches, ok := la.Total(CSearch), la.Total(CSearchOK)
	bytes, latency := la.SearchSums()
	return Summary{
		Scheme:          scheme,
		Topology:        topology,
		Requests:        int(searches),
		SuccessRate:     ratio(ok, searches),
		MeanRespMS:      ratio(latency, ok),
		P95RespMS:       percentile(la.lat, 0.95),
		MeanHops:        ratio(la.hops, ok),
		MeanHits:        ratio(la.hits, ok),
		OneHopRate:      ratio(la.oneHop, ok),
		MeanSearchBytes: ratio(bytes, searches),
		LoadMeanKBps:    mean,
		LoadStdKBps:     std,
		Breakdown:       la.Breakdown(loadMask),
		LoadSeries:      la.Series(loadMask),
		WarmupBytes:     la.WarmupBytes(AllMask),
		Drops:           la.Total(CDrop),
		Retries:         la.Total(CRetry),
		Timeouts:        la.Total(CTimeout),
	}
}

// ratio returns n/d, or 0 when d is 0.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of the latencies in
// milliseconds, 0 when there are none.
func percentile(lat []int32, p float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	return int64(sorted[int(p*float64(len(sorted)-1))])
}
