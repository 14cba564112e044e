package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// WallBuckets is the number of log2 wall-clock latency buckets a WallHist
// keeps: bucket i holds observations in [2^(i-1), 2^i) microseconds
// (bucket 0 is < 1 µs); the last bucket absorbs everything ≥ ~2¹⁴ seconds.
const WallBuckets = 34

// WallHist is a concurrent log2 histogram of wall-clock latencies for the
// serving plane: one atomic add per observation, no locks, no allocation.
// It complements the ledger's sim-time response histogram — the ledger
// buckets virtual (modelled) milliseconds keyed by replay time, while a
// WallHist buckets real elapsed time of live requests, which is what a p99
// gate must measure. The zero value is ready to use; all methods are valid
// on a nil receiver (no-ops returning zeros).
type WallHist struct {
	buckets [WallBuckets]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one latency.
func (h *WallHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	b := bits.Len64(uint64(max(us, 0)))
	if b >= WallBuckets {
		b = WallBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the number of observations.
func (h *WallHist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time.
func (h *WallHist) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Quantile returns the q-quantile (0 < q ≤ 1) with linear interpolation
// inside the landing bucket — the usual histogram-quantile estimate, exact
// to within the bucket's resolution. Zero observations yield 0.
func (h *WallHist) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for b := 0; b < WallBuckets; b++ {
		n := h.buckets[b].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo, hi := bucketBoundsUS(b)
			frac := (rank - float64(cum)) / float64(n)
			us := lo + frac*(hi-lo)
			return time.Duration(us * float64(time.Microsecond))
		}
		cum += n
	}
	lo, _ := bucketBoundsUS(WallBuckets - 1)
	return time.Duration(lo * float64(time.Microsecond))
}

// bucketBoundsUS returns bucket b's [lo, hi) bounds in microseconds.
func bucketBoundsUS(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return float64(int64(1) << (b - 1)), float64(int64(1) << b)
}

// WriteProm exports the histogram in Prometheus exposition format under
// the given fully qualified metric name: cumulative _bucket samples with
// le upper bounds in seconds, plus _sum and _count.
func (h *WallHist) WriteProm(w *PromWriter, name, help string) {
	if h == nil {
		return
	}
	var les []float64
	var cum []int64
	var run int64
	for b := 0; b < WallBuckets-1; b++ {
		_, hi := bucketBoundsUS(b)
		run += h.buckets[b].Load()
		les = append(les, hi/1e6)
		cum = append(cum, run)
	}
	w.Histogram(name, help, les, cum, h.Count(), h.Sum().Seconds())
}
