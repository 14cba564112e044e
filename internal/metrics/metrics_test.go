package metrics

import (
	"math"
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
	a.Add(0, MQuery, 100)
	a.Add(999, MQuery, 50)
	a.Add(1000, MQuery, 25)
	a.Add(50_000, MQuery, 7) // past the end → folded into last bucket
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
	a.Add(-100, MAdFull, 1000)
	a.Add(100, MAdFull, 10)
	if got := a.WarmupBytes(AllMask); got != 1000 {
		t.Errorf("warmup = %d, want 1000", got)
	}
	if got := a.TotalBytes(AllMask); got != 10 {
		t.Errorf("run total = %d, want 10 (warm-up excluded)", got)
	}
}

func TestLoadAccountClassSeparation(t *testing.T) {
	a := NewLoadAccount(3)
	a.Add(0, MQuery, 100)
	a.Add(0, MAdPatch, 200)
	a.Add(0, MQueryHit, 300)
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
	a.Add(0, MQuery, 2048)
	a.Add(1000, MQuery, 4096)
	a.Add(3500, MQuery, 999999) // second 3 has no live peers → not in series
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
	a.Add(0, MAdFull, 85)
	a.Add(0, MAdPatch, 600)
	a.Add(0, MAdRefresh, 310)
	a.Add(0, MConfirm, 5)
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
	a.Add(0, MQuery, 1)
	a.SetLive(5, 3) // past the end: folds into the final (only) bucket, like Add
	if a.Live(0) != 3 {
		t.Error("out-of-range SetLive did not fold into the final bucket")
	}
}

func TestSearchStats(t *testing.T) {
	var s SearchStats
	s.Record(SearchResult{Success: true, ResponseMS: 100, Bytes: 10, Hops: 1})
	s.Record(SearchResult{Success: true, ResponseMS: 300, Bytes: 30, Hops: 3})
	s.Record(SearchResult{Success: false, Bytes: 20})
	if s.Total() != 3 {
		t.Errorf("Total = %d", s.Total())
	}
	if got := s.SuccessRate(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("SuccessRate = %v", got)
	}
	if got := s.MeanResponseMS(); math.Abs(got-200) > 1e-9 {
		t.Errorf("MeanResponseMS = %v, want 200", got)
	}
	if got := s.MeanBytes(); math.Abs(got-20) > 1e-9 {
		t.Errorf("MeanBytes = %v, want 20", got)
	}
	if got := s.MeanHops(); math.Abs(got-2) > 1e-9 {
		t.Errorf("MeanHops = %v, want 2", got)
	}
	if got := s.OneHopRate(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("OneHopRate = %v, want 0.5", got)
	}
	if got := s.Percentile(0); got != 100 {
		t.Errorf("P0 = %d, want 100", got)
	}
	if got := s.Percentile(1); got != 300 {
		t.Errorf("P100 = %d, want 300", got)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSearchStatsEmpty(t *testing.T) {
	var s SearchStats
	if s.SuccessRate() != 0 || s.MeanResponseMS() != 0 || s.MeanBytes() != 0 || s.MeanHops() != 0 || s.OneHopRate() != 0 || s.Percentile(0.5) != 0 {
		t.Error("empty stats must be all zero")
	}
}

// Property: SuccessRate is always in [0,1] and MeanResponse only reflects
// successes.
func TestSearchStatsProperty(t *testing.T) {
	prop := func(outcomes []bool, resp uint16) bool {
		var s SearchStats
		for _, ok := range outcomes {
			s.Record(SearchResult{Success: ok, ResponseMS: int64(resp), Hops: 1})
		}
		r := s.SuccessRate()
		if r < 0 || r > 1 {
			return false
		}
		if anyTrue(outcomes) && s.MeanResponseMS() != float64(resp) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func anyTrue(xs []bool) bool {
	for _, x := range xs {
		if x {
			return true
		}
	}
	return false
}

func TestSummarize(t *testing.T) {
	var ss SearchStats
	ss.Record(SearchResult{Success: true, ResponseMS: 50, Bytes: 5, Hops: 1})
	la := NewLoadAccount(2)
	la.SetLive(0, 1)
	la.SetLive(1, 1)
	la.Add(0, MConfirm, 1024)
	la.Add(-1, MAdFull, 777)
	sum := Summarize("asap-rw", "crawled", &ss, la, ASAPLoadMask)
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
	a.Add(3500, MQuery, 8192) // folded into second 2
	a.SetLive(3, 2)           // boundary second: must update bucket 2
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

func TestFaultCounters(t *testing.T) {
	a := NewLoadAccount(1)
	if d, r, to := a.FaultCounts(); d != 0 || r != 0 || to != 0 {
		t.Fatal("fresh account has non-zero fault counts")
	}
	a.CountDrop()
	a.CountDrop()
	a.CountRetry()
	a.CountTimeout()
	a.CountTimeout()
	a.CountTimeout()
	d, r, to := a.FaultCounts()
	if d != 2 || r != 1 || to != 3 {
		t.Fatalf("FaultCounts = (%d, %d, %d), want (2, 1, 3)", d, r, to)
	}
	sum := Summarize("s", "t", &SearchStats{}, a, AllMask)
	if sum.Drops != 2 || sum.Retries != 1 || sum.Timeouts != 3 {
		t.Errorf("Summary fault counts = (%d, %d, %d), want (2, 1, 3)",
			sum.Drops, sum.Retries, sum.Timeouts)
	}
}
