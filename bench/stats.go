package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// percentile returns the num/den quantile of sorted by the nearest-rank
// rule: the smallest sample with at least that share of the samples at or
// below it. It is exact — no interpolation, no buckets; with 6,000 samples
// p99 leaves 60 above it.
func percentile(sorted []int32, num, den int) int32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*num + den - 1) / den
	return sorted[max(rank, 1)-1]
}

// dist is one metric's spread over the cycles of a run.
type dist struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// overCycles summarises per-cycle values; the median of an even count is
// the mean of the two middle values.
func overCycles(vals []float64) dist {
	if len(vals) == 0 {
		return dist{}
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	mid := len(s) / 2
	med := s[mid]
	if len(s)%2 == 0 {
		med = (s[mid-1] + s[mid]) / 2
	}
	return dist{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quartileSpread is the distance between the first and third quartile of
// vals as a share of their median, with the quartiles of Python's
// statistics.quantiles(vals, n=4) (exclusive method) — the figure the
// acceptance rule compares with a metric's bound.
func quartileSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := overCycles(s).Median
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// writesDue returns how many of `writes` must have been applied once
// `done` of `reads` reads have completed, spreading the writes evenly by
// count so that exactly `writes` are due when the last read completes.
func writesDue(done, reads, writes int) int {
	return int(int64(done) * int64(writes) / int64(reads))
}

// zipfStream is the PCG stream of the query-mix generator, so a mix
// depends on the seed and the reader index alone.
const zipfStream = 0x5bd1e9955bd1e995

// zipfMix appends n indexes in [0, size) drawn with weight (i+1)^-1.
func zipfMix(dst []int32, size, n int, seed, reader uint64) []int32 {
	cum := make([]float64, size)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	rng := rand.New(rand.NewPCG(seed, zipfStream+reader))
	for i := 0; i < n; i++ {
		j, _ := slices.BinarySearch(cum, rng.Float64()*total)
		dst = append(dst, int32(min(j, size-1)))
	}
	return dst
}

// sink keeps the timed loops' results alive.
var sink uint64

// hostRef times a fixed pure-Go loop (integer mixing over a 4 MB table) in
// milliseconds. It touches no repo code, so a slow host period shows here
// beside the numbers it inflated.
func hostRef(table []uint64) float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(table) - 1)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&mask] += x
	}
	sink += x
	return float64(time.Since(t0)) / 1e6
}

// timerCost returns the cost of one time.Now/time.Since pair in ns — what
// every timed read carries in both the untraced and the traced cycles.
func timerCost() float64 {
	const n = 1 << 20
	var acc time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		acc += time.Since(t)
	}
	sink += uint64(acc)
	return float64(time.Since(t0)) / n
}
