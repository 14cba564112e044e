package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestMsgClassString(t *testing.T) {
	for c := MsgClass(0); c < NumMsgClasses; c++ {
		if c.String() == "invalid" || c.String() == "" {
			t.Errorf("class %d has no label", c)
		}
	}
	if MsgClass(99).String() != "invalid" {
		t.Error("out-of-range class not invalid")
	}
}

func TestMaskOps(t *testing.T) {
	m := Mask(MQuery, MAdFull)
	if !m.Has(MQuery) || !m.Has(MAdFull) || m.Has(MConfirm) {
		t.Errorf("mask %b wrong", m)
	}
	if !BaselineLoadMask.Has(MQuery) || BaselineLoadMask.Has(MQueryHit) {
		t.Error("BaselineLoadMask must count query messages only")
	}
	for _, c := range []MsgClass{MConfirm, MAdsRequest, MAdFull, MAdPatch, MAdRefresh} {
		if !ASAPLoadMask.Has(c) {
			t.Errorf("ASAPLoadMask missing %v", c)
		}
	}
	if ASAPLoadMask.Has(MQuery) {
		t.Error("ASAPLoadMask must not count baseline queries")
	}
	for c := MsgClass(0); c < NumMsgClasses; c++ {
		if !AllMask.Has(c) {
			t.Errorf("AllMask missing %v", c)
		}
	}
}

func TestLoadAccountBuckets(t *testing.T) {
	a := NewLoadAccount(10)
	a.Send(0, MQuery, 100, 0)
	a.Send(999, MQuery, 50, 0)
	a.Send(1000, MQuery, 25, 0)
	a.Send(50_000, MQuery, 7, 0) // past the end → folded into last bucket
	if got := a.BytesAt(0, BaselineLoadMask); got != 150 {
		t.Errorf("bucket 0 = %d, want 150", got)
	}
	if got := a.BytesAt(1, BaselineLoadMask); got != 25 {
		t.Errorf("bucket 1 = %d, want 25", got)
	}
	if got := a.BytesAt(9, BaselineLoadMask); got != 7 {
		t.Errorf("last bucket = %d, want 7", got)
	}
	if got := a.TotalBytes(BaselineLoadMask); got != 182 {
		t.Errorf("total = %d, want 182", got)
	}
}

func TestLoadAccountWarmup(t *testing.T) {
	a := NewLoadAccount(5)
	a.Send(-100, MAdFull, 1000, 0)
	a.Send(100, MAdFull, 10, 0)
	if got := a.WarmupBytes(AllMask); got != 1000 {
		t.Errorf("warmup = %d, want 1000", got)
	}
	if got := a.TotalBytes(AllMask); got != 10 {
		t.Errorf("run total = %d, want 10 (warm-up excluded)", got)
	}
}

func TestLoadAccountClassSeparation(t *testing.T) {
	a := NewLoadAccount(3)
	a.Send(0, MQuery, 100, 0)
	a.Send(0, MAdPatch, 200, 0)
	a.Send(0, MQueryHit, 300, 0)
	if got := a.BytesAt(0, BaselineLoadMask); got != 100 {
		t.Errorf("baseline mask = %d, want 100", got)
	}
	if got := a.BytesAt(0, ASAPLoadMask); got != 200 {
		t.Errorf("asap mask = %d, want 200", got)
	}
	by := a.ByClass()
	if by[MQuery] != 100 || by[MAdPatch] != 200 || by[MQueryHit] != 300 {
		t.Errorf("ByClass = %v", by)
	}
}

func TestLoadSeriesAndMeanStd(t *testing.T) {
	a := NewLoadAccount(4)
	// 2 live nodes; loads: 2048B, 4096B, 0B, (no live → skipped).
	a.SetLive(0, 2)
	a.SetLive(1, 2)
	a.SetLive(2, 2)
	a.SetLive(3, 0)
	a.Send(0, MQuery, 2048, 0)
	a.Send(1000, MQuery, 4096, 0)
	a.Send(3500, MQuery, 999999, 0) // second 3 has no live peers → not in series
	series := a.Series(BaselineLoadMask)
	if len(series) != 3 {
		t.Fatalf("series length %d, want 3", len(series))
	}
	// KB/node/s: 1, 2, 0.
	want := []float64{1, 2, 0}
	for i := range want {
		if math.Abs(series[i]-want[i]) > 1e-9 {
			t.Errorf("series[%d] = %v, want %v", i, series[i], want[i])
		}
	}
	mean, std := a.MeanStd(BaselineLoadMask)
	if math.Abs(mean-1) > 1e-9 {
		t.Errorf("mean = %v, want 1", mean)
	}
	wantStd := math.Sqrt((0 + 1 + 1) / 3.0)
	if math.Abs(std-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v", std, wantStd)
	}
}

func TestLoadEmptySeries(t *testing.T) {
	a := NewLoadAccount(3)
	if s := a.Series(AllMask); len(s) != 0 {
		t.Errorf("series over zero live peers = %v", s)
	}
	mean, std := a.MeanStd(AllMask)
	if mean != 0 || std != 0 {
		t.Error("MeanStd on empty series not zero")
	}
}

func TestBreakdown(t *testing.T) {
	a := NewLoadAccount(2)
	a.Send(0, MAdFull, 85, 0)
	a.Send(0, MAdPatch, 600, 0)
	a.Send(0, MAdRefresh, 310, 0)
	a.Send(0, MConfirm, 5, 0)
	bd := a.Breakdown(ASAPLoadMask)
	total := bd[MAdFull] + bd[MAdPatch] + bd[MAdRefresh] + bd[MConfirm]
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("breakdown mass %v, want 1", total)
	}
	if math.Abs(bd[MAdFull]-0.085) > 1e-9 {
		t.Errorf("full-ad share %v, want 0.085", bd[MAdFull])
	}
	var zero LoadAccount
	_ = zero
	empty := NewLoadAccount(1)
	bd = empty.Breakdown(ASAPLoadMask)
	for _, v := range bd {
		if v != 0 {
			t.Error("breakdown of empty account not zero")
		}
	}
}

func TestLoadAccountMinimumSize(t *testing.T) {
	a := NewLoadAccount(0)
	if a.Seconds() != 1 {
		t.Errorf("Seconds = %d, want clamped to 1", a.Seconds())
	}
	a.Send(0, MQuery, 1, 0)
	a.SetLive(5, 3) // past the end: folds into the final (only) bucket, like Add
	if a.Live(0) != 3 {
		t.Error("out-of-range SetLive did not fold into the final bucket")
	}
}

// TestSearchStats: the search fields Summarize reads off the ledger —
// totals, means over successes or over all searches, one-hop rate and
// latency percentiles.
func TestSearchStats(t *testing.T) {
	a := NewLoadAccount(1)
	a.Search(0, SearchResult{Success: true, ResponseMS: 100, Bytes: 10, Hops: 1})
	a.Search(0, SearchResult{Success: true, ResponseMS: 300, Bytes: 30, Hops: 3})
	a.Search(0, SearchResult{Success: false, Bytes: 20})
	s := Summarize("s", "t", a, AllMask)
	if s.Requests != 3 {
		t.Errorf("Requests = %d", s.Requests)
	}
	if got := s.SuccessRate; math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("SuccessRate = %v", got)
	}
	if got := s.MeanRespMS; math.Abs(got-200) > 1e-9 {
		t.Errorf("MeanRespMS = %v, want 200", got)
	}
	if got := s.MeanSearchBytes; math.Abs(got-20) > 1e-9 {
		t.Errorf("MeanSearchBytes = %v, want 20", got)
	}
	if got := s.MeanHops; math.Abs(got-2) > 1e-9 {
		t.Errorf("MeanHops = %v, want 2", got)
	}
	if got := s.OneHopRate; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("OneHopRate = %v, want 0.5", got)
	}
	if got := percentile(a.lat, 0); got != 100 {
		t.Errorf("P0 = %d, want 100", got)
	}
	if got := percentile(a.lat, 1); got != 300 {
		t.Errorf("P100 = %d, want 300", got)
	}
	if s.P95RespMS != 100 {
		t.Errorf("P95RespMS = %d, want 100 (index ⌊0.95·1⌋ of two)", s.P95RespMS)
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

// TestSearchStatsEmpty: a ledger with no searches summarizes to zeros.
func TestSearchStatsEmpty(t *testing.T) {
	a := NewLoadAccount(1)
	s := Summarize("s", "t", a, AllMask)
	if s.Requests != 0 || s.SuccessRate != 0 || s.MeanRespMS != 0 || s.MeanSearchBytes != 0 ||
		s.MeanHops != 0 || s.MeanHits != 0 || s.OneHopRate != 0 || s.P95RespMS != 0 || percentile(a.lat, 0.5) != 0 {
		t.Errorf("empty ledger must summarize to zeros: %+v", s)
	}
}

// Property: SuccessRate is always in [0,1] and MeanRespMS only reflects
// successes.
func TestSearchStatsProperty(t *testing.T) {
	prop := func(outcomes []bool, resp uint16) bool {
		a := NewLoadAccount(1)
		for _, ok := range outcomes {
			r := SearchResult{Success: ok, Hops: 1}
			if ok {
				r.ResponseMS = int64(resp)
			}
			a.Search(0, r)
		}
		s := Summarize("s", "t", a, AllMask)
		if s.SuccessRate < 0 || s.SuccessRate > 1 {
			return false
		}
		if slices.Contains(outcomes, true) && s.MeanRespMS != float64(resp) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	la := NewLoadAccount(2)
	la.Search(0, SearchResult{Success: true, ResponseMS: 50, Bytes: 5, Hops: 1})
	la.SetLive(0, 1)
	la.SetLive(1, 1)
	la.Send(0, MConfirm, 1024, 0)
	la.Send(-1, MAdFull, 777, 0)
	sum := Summarize("asap-rw", "crawled", la, ASAPLoadMask)
	if sum.Scheme != "asap-rw" || sum.Topology != "crawled" {
		t.Error("labels lost")
	}
	if sum.Requests != 1 || sum.SuccessRate != 1 || sum.MeanRespMS != 50 {
		t.Errorf("search fields wrong: %+v", sum)
	}
	if sum.WarmupBytes != 777 {
		t.Errorf("WarmupBytes = %d, want 777", sum.WarmupBytes)
	}
	if len(sum.LoadSeries) != 2 {
		t.Errorf("series length %d, want 2", len(sum.LoadSeries))
	}
	if sum.LoadMeanKBps <= 0 {
		t.Error("zero load mean")
	}
	if sum.Breakdown[MConfirm] != 1 {
		t.Errorf("breakdown = %v", sum.Breakdown)
	}
}

func TestSetLiveFoldsBoundarySecond(t *testing.T) {
	// Add folds bytes at or past the horizon into the final bucket, so
	// SetLive must fold the matching live-count update the same way — the
	// runner's last advance calls SetLive(Seconds()), and dropping it
	// leaves the final bucket's bytes divided by a stale denominator.
	a := NewLoadAccount(3)
	a.SetLive(0, 4)
	a.SetLive(1, 4)
	a.SetLive(2, 4)
	a.Send(3500, MQuery, 8192, 0) // folded into second 2
	a.SetLive(3, 2)               // boundary second: must update bucket 2
	if got := a.Live(2); got != 2 {
		t.Fatalf("Live(2) = %d after SetLive(3, 2), want 2", got)
	}
	series := a.Series(BaselineLoadMask)
	// 8 KB over 2 live nodes → 4 KB/node/s in the final bucket.
	if got := series[2]; math.Abs(got-4) > 1e-9 {
		t.Errorf("final-bucket load %v KB/node/s, want 4", got)
	}
	a.SetLive(-1, 99) // negative seconds stay ignored
	for s := 0; s < 3; s++ {
		if a.Live(s) == 99 {
			t.Error("negative-second SetLive mutated a bucket")
		}
	}
}

// TestFaultCounters: drops, retries and timeouts are column sums over
// every row, warm-up and horizon-folded bookings included, and Summarize
// reports exactly those sums.
func TestFaultCounters(t *testing.T) {
	a := NewLoadAccount(1)
	if a.Total(CDrop) != 0 || a.Total(CRetry) != 0 || a.Total(CTimeout) != 0 {
		t.Fatal("fresh ledger has non-zero fault counts")
	}
	a.Count(-5, CDrop)
	a.Count(10_000, CDrop)
	a.Count(0, CRetry)
	for _, tMS := range []int64{-1, 999, 1 << 40} {
		a.Count(tMS, CTimeout)
	}
	if d, r, to := a.Total(CDrop), a.Total(CRetry), a.Total(CTimeout); d != 2 || r != 1 || to != 3 {
		t.Fatalf("totals = (%d, %d, %d), want (2, 1, 3)", d, r, to)
	}
	sum := Summarize("s", "t", a, AllMask)
	if sum.Drops != 2 || sum.Retries != 1 || sum.Timeouts != 3 {
		t.Errorf("Summary fault counts = (%d, %d, %d), want (2, 1, 3)",
			sum.Drops, sum.Retries, sum.Timeouts)
	}
}

// TestLedgerProperty books random sends, events and searches at warm-up,
// in-range and past-horizon times against a direct model: every cell of
// every row, and so every column's sum, must equal what was booked there,
// and Summarize's search totals, means, histogram and P95 must equal a
// direct computation over the booked outcomes.
func TestLedgerProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		seconds := 1 + rng.IntN(6)
		a := NewLoadAccount(seconds)
		cols := Columns()
		if len(cols) != rowWidth {
			t.Fatalf("%d column labels for a row of %d", len(cols), rowWidth)
		}
		want := make([][]int64, seconds+1) // model rows; index 0 is warm-up
		for i := range want {
			want[i] = make([]int64, rowWidth)
		}
		model := func(tMS int64) []int64 {
			switch {
			case tMS < 0:
				return want[0]
			case tMS >= int64(seconds)*1000:
				return want[seconds] // folded into the final second
			}
			return want[1+tMS/1000]
		}
		randTime := func() int64 {
			switch rng.IntN(4) {
			case 0:
				return -1 - rng.Int64N(1e6)
			case 1:
				return int64(seconds)*1000 + rng.Int64N(1e9)
			}
			return rng.Int64N(int64(seconds) * 1000)
		}
		var ok, hops, hits, oneHop int64
		var lats []int64
		var hist [HistBuckets]int64
		bookings := 400
		if seed == 1 {
			bookings = 0 // the empty ledger summarizes to zeros
		}
		for i := 0; i < bookings; i++ {
			tMS := randTime()
			row := model(tMS)
			switch rng.IntN(3) {
			case 0:
				c, bytes, copies := MsgClass(rng.IntN(NumMsgClasses)), rng.IntN(5000), rng.IntN(9)
				a.Send(tMS, c, bytes, copies)
				row[colBytes+int(c)] += int64(bytes)
				row[colCopies+int(c)] += int64(copies)
			case 1:
				e := Event(rng.IntN(NumEvents))
				if e == CSearch || e == CSearchOK {
					continue // booked by Search only
				}
				a.Count(tMS, e)
				row[colEvents+int(e)]++
			default:
				r := SearchResult{Success: rng.IntN(3) > 0, Bytes: rng.Int64N(1e5)}
				if r.Success {
					r.ResponseMS = rng.Int64N(1<<21) - 8 // a negative latency clamps to bucket 0
					r.Hops, r.Hits = 1+rng.IntN(4), 1+rng.IntN(3)
				}
				a.Search(tMS, r)
				row[colEvents+int(CSearch)]++
				row[colSearchBytes] += r.Bytes
				if r.Success {
					row[colEvents+int(CSearchOK)]++
					row[colLatency] += r.ResponseMS
					ok, hops, hits = ok+1, hops+int64(r.Hops), hits+int64(r.Hits)
					if r.Hops == 1 {
						oneHop++
					}
					lats = append(lats, r.ResponseMS)
					b := 0
					for b < HistBuckets-1 && r.ResponseMS >= 1<<b {
						b++
					}
					hist[b]++
				}
			}
		}
		colSum := make([]int64, rowWidth)
		for sec := -1; sec < seconds; sec++ {
			got := a.Row(sec)
			for c := range got {
				if got[c] != want[sec+1][c] {
					t.Fatalf("seed %d: row %d column %s = %d, want %d", seed, sec, cols[c], got[c], want[sec+1][c])
				}
				colSum[c] += want[sec+1][c]
			}
		}
		for e := Event(0); e < NumEvents; e++ {
			if got := a.Total(e); got != colSum[colEvents+int(e)] {
				t.Fatalf("seed %d: Total(%v) = %d, want %d", seed, e, got, colSum[colEvents+int(e)])
			}
		}
		for c := MsgClass(0); c < NumMsgClasses; c++ {
			if got := a.Copies(c); got != colSum[colCopies+int(c)] {
				t.Fatalf("seed %d: Copies(%v) = %d, want %d", seed, c, got, colSum[colCopies+int(c)])
			}
		}
		if !slices.Equal(a.Hist(), hist[:]) {
			t.Fatalf("seed %d: histogram %v, want %v", seed, a.Hist(), hist)
		}

		sum := Summarize("s", "t", a, AllMask)
		n := colSum[colEvents+int(CSearch)]
		div := func(x, y int64) float64 {
			if y == 0 {
				return 0
			}
			return float64(x) / float64(y)
		}
		var p95 int64
		if len(lats) > 0 {
			slices.Sort(lats)
			p95 = lats[int(0.95*float64(len(lats)-1))]
		}
		if sum.Requests != int(n) || sum.SuccessRate != div(ok, n) ||
			sum.MeanRespMS != div(colSum[colLatency], ok) || sum.P95RespMS != p95 ||
			sum.MeanHops != div(hops, ok) || sum.MeanHits != div(hits, ok) ||
			sum.OneHopRate != div(oneHop, ok) || sum.MeanSearchBytes != div(colSum[colSearchBytes], n) {
			t.Fatalf("seed %d: summary %+v disagrees with the booked searches", seed, sum)
		}
		if sum.Drops != colSum[colEvents+int(CDrop)] || sum.Retries != colSum[colEvents+int(CRetry)] ||
			sum.Timeouts != colSum[colEvents+int(CTimeout)] {
			t.Fatalf("seed %d: summary fault totals disagree with the columns", seed)
		}
		if sum.WarmupBytes != masked(want[0], AllMask) {
			t.Fatalf("seed %d: warm-up bytes %d, want %d", seed, sum.WarmupBytes, masked(want[0], AllMask))
		}
	}
}
