package asap

// One benchmark per table/figure of the paper's evaluation (§V), per the
// experiment index in DESIGN.md. Each bench regenerates its figure at the
// ScaleSmall preset (1/10 linear scale; run cmd/experiments -scale full
// for the paper-scale numbers recorded in EXPERIMENTS.md) and prints the
// same rows/series the paper reports. The 6-scheme × 3-topology matrix is
// computed once and shared across benches.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
	benchMat  experiments.Matrix
	benchErr  error
)

func benchMatrix(b *testing.B) (*experiments.Lab, experiments.Matrix) {
	b.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = experiments.NewLab(experiments.ScaleSmall())
		if benchErr != nil {
			return
		}
		// RunMatrix fans the 18 runs across GOMAXPROCS workers over cloned
		// topology prototypes, so the shared setup of `go test -bench .`
		// costs one parallel matrix instead of a sequential replay.
		var cells []experiments.Cell
		cells, benchErr = benchLab.RunMatrix(nil, nil, nil)
		benchMat = experiments.MatrixOf(cells)
	})
	if benchErr != nil {
		b.Fatalf("bench matrix: %v", benchErr)
	}
	return benchLab, benchMat
}

// BenchmarkRunMatrix measures one full 6-scheme × 3-topology small-scale
// matrix replay; `make bench-gate` runs one iteration as a smoke test.
// "sequential" runs one cell at a time (Scale.MatrixWorkers = 1);
// "parallel" is the production path, GOMAXPROCS workers. Both produce
// identical cells.
func BenchmarkRunMatrix(b *testing.B) {
	lab, err := experiments.NewLab(experiments.ScaleSmall())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			lab.Scale.MatrixWorkers = bc.workers
			runs := 0
			for i := 0; i < b.N; i++ {
				cells, err := lab.RunMatrix(nil, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				runs = len(cells)
			}
			b.ReportMetric(float64(runs*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// hotPathAllocs measures steady-state allocations per operation of the
// two replay hot paths — Search and the ad-delivery cascade behind
// ContentChanged — on a tiny attached system. It takes the minimum over several attempts so a
// one-off sync.Pool refill or map growth cannot fail the gate.
func hotPathAllocs(t *testing.T) (search, deliver float64) {
	t.Helper()
	lab, err := experiments.NewLab(experiments.ScaleTiny())
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, lab.Scale.Seed)
	s := core.New(lab.Scale.ASAPConfig(core.RW))
	s.Attach(sys)

	var qev *trace.Event
	for i := range lab.Tr.Events {
		if lab.Tr.Events[i].Kind == trace.Query {
			qev = &lab.Tr.Events[i]
			break
		}
	}
	if qev == nil {
		t.Fatal("tiny trace has no query event")
	}
	doc := lab.U.Peer(content.PeerID(qev.Node)).Docs[0]
	added := true

	measure := func(fn func()) float64 {
		for i := 0; i < 50; i++ {
			fn() // reach steady state before measuring
		}
		min := testing.AllocsPerRun(200, fn)
		for i := 0; i < 4; i++ {
			if a := testing.AllocsPerRun(200, fn); a < min {
				min = a
			}
		}
		return min
	}
	search = measure(func() { s.Search(qev) })
	deliver = measure(func() {
		s.ContentChanged(qev.Time, qev.Node, doc, added)
		added = !added
	})
	return search, deliver
}

// deliverAllocBound caps a content change's delivery cascade at its
// measured allocs/op, so a new allocation on that path fails the gate.
const deliverAllocBound = 3

// TestObsOffHotPathAllocs gates the hot paths with every booking on (there
// is no mode without the ledger): Search allocates nothing per query, and
// a content change's delivery cascade stays within deliverAllocBound — the
// ledger is preallocated rows updated by plain adds.
func TestObsOffHotPathAllocs(t *testing.T) {
	search, deliver := hotPathAllocs(t)
	t.Logf("Search %.1f allocs/op, delivery %.1f allocs/op", search, deliver)
	if search != 0 {
		t.Errorf("Search allocates %.1f allocs/op, want 0", search)
	}
	if deliver > deliverAllocBound {
		t.Errorf("delivery allocates %.1f allocs/op, want ≤ %d", deliver, deliverAllocBound)
	}
}

// printOnce emits a figure's table a single time per bench run.
func printOnce(b *testing.B, printed *bool, s string) {
	b.Helper()
	if !*printed {
		fmt.Println("\n" + s)
		*printed = true
	}
}

var (
	fig2Printed, fig3Printed, fig4Printed, fig5Printed, fig6Printed,
	fig7Printed, fig8Printed, fig9Printed, fig10Printed, claimsPrinted bool
)

// BenchmarkFig2SemanticClasses regenerates Fig. 2: peers per semantic
// class among the selected participants.
func BenchmarkFig2SemanticClasses(b *testing.B) {
	lab, _ := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lab.Fig2()
	}
	printOnce(b, &fig2Printed, experiments.FormatFig2(lab))
}

// BenchmarkFig3NodeInterests regenerates Fig. 3: peers per interest.
func BenchmarkFig3NodeInterests(b *testing.B) {
	lab, _ := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lab.Fig3()
	}
	printOnce(b, &fig3Printed, experiments.FormatFig3(lab))
}

// BenchmarkFig4SuccessRate regenerates Fig. 4: success rate across the
// 6 schemes × 3 topologies.
func BenchmarkFig4SuccessRate(b *testing.B) {
	_, m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.FormatFig4(m)
	}
	printOnce(b, &fig4Printed, experiments.FormatFig4(m))
	b.ReportMetric(m["asap-rw"][overlay.Crawled].SuccessRate*100, "asap-rw-succ-%")
	b.ReportMetric(m["flooding"][overlay.Crawled].SuccessRate*100, "flood-succ-%")
}

// BenchmarkFig5ResponseTime regenerates Fig. 5: mean response time.
func BenchmarkFig5ResponseTime(b *testing.B) {
	_, m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.FormatFig5(m)
	}
	printOnce(b, &fig5Printed, experiments.FormatFig5(m))
	b.ReportMetric(m["asap-rw"][overlay.Crawled].MeanRespMS, "asap-rw-ms")
	b.ReportMetric(m["flooding"][overlay.Crawled].MeanRespMS, "flood-ms")
}

// BenchmarkFig6SearchCost regenerates Fig. 6: bandwidth per search.
func BenchmarkFig6SearchCost(b *testing.B) {
	_, m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.FormatFig6(m)
	}
	printOnce(b, &fig6Printed, experiments.FormatFig6(m))
	ratio := m["flooding"][overlay.Crawled].MeanSearchBytes / m["asap-rw"][overlay.Crawled].MeanSearchBytes
	b.ReportMetric(ratio, "flood/asap-cost-x")
}

// BenchmarkFig7LoadBreakdown regenerates Fig. 7: the ASAP(RW) system-load
// breakdown on the crawled topology.
func BenchmarkFig7LoadBreakdown(b *testing.B) {
	_, m := benchMatrix(b)
	sum := m["asap-rw"][overlay.Crawled]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.FormatFig7(sum)
	}
	printOnce(b, &fig7Printed, experiments.FormatFig7(sum))
	patchRefresh := sum.Breakdown[metrics.MAdPatch] + sum.Breakdown[metrics.MAdRefresh]
	b.ReportMetric(patchRefresh*100, "patch+refresh-%")
	b.ReportMetric(sum.Breakdown[metrics.MAdFull]*100, "full-%")
}

// BenchmarkFig8SystemLoad regenerates Fig. 8: mean system load.
func BenchmarkFig8SystemLoad(b *testing.B) {
	_, m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.FormatFig8(m)
	}
	printOnce(b, &fig8Printed, experiments.FormatFig8(m))
	b.ReportMetric(m["asap-rw"][overlay.Crawled].LoadMeanKBps, "asap-rw-KBps")
	b.ReportMetric(m["flooding"][overlay.Crawled].LoadMeanKBps, "flood-KBps")
}

// BenchmarkFig9LoadVariation regenerates Fig. 9: load standard deviation.
func BenchmarkFig9LoadVariation(b *testing.B) {
	_, m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.FormatFig9(m)
	}
	printOnce(b, &fig9Printed, experiments.FormatFig9(m))
	b.ReportMetric(m["asap-rw"][overlay.Crawled].LoadStdKBps, "asap-rw-std")
	b.ReportMetric(m["flooding"][overlay.Crawled].LoadStdKBps, "flood-std")
}

// BenchmarkFig10LoadTimeSeries regenerates Fig. 10: the 100-second
// real-time load snapshot on the crawled topology.
func BenchmarkFig10LoadTimeSeries(b *testing.B) {
	_, m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.FormatFig10(m, 100)
	}
	printOnce(b, &fig10Printed, experiments.FormatFig10(m, 100))
	// Peak-vs-steady contrast the paper highlights: flooding peaks high,
	// ASAP(RW) stays low.
	peak := func(s []float64) float64 {
		p := 0.0
		for _, v := range s {
			if v > p {
				p = v
			}
		}
		return p
	}
	b.ReportMetric(peak(m["flooding"][overlay.Crawled].LoadSeries), "flood-peak-KBps")
	b.ReportMetric(peak(m["asap-rw"][overlay.Crawled].LoadSeries), "asap-rw-peak-KBps")
}

// BenchmarkHeadlineClaims checks the paper's comparative claims on the
// reproduced matrix (DESIGN.md §3).
func BenchmarkHeadlineClaims(b *testing.B) {
	_, m := benchMatrix(b)
	b.ResetTimer()
	var claims []experiments.Claim
	for i := 0; i < b.N; i++ {
		claims = experiments.CheckClaims(m)
	}
	printOnce(b, &claimsPrinted, experiments.FormatClaims(claims))
	pass := 0
	for _, c := range claims {
		if c.Pass {
			pass++
		}
	}
	b.ReportMetric(float64(pass), "claims-pass")
	b.ReportMetric(float64(len(claims)), "claims-total")
}

// --- Ablations (DESIGN.md §6) --------------------------------------------

var (
	ablateOnce sync.Once
	ablateLab  *experiments.Lab
	ablateErr  error
)

// ablationRun replays the tiny trace on the crawled topology under
// asap-rw with a tweaked configuration.
func ablationRun(b *testing.B, mutate func(*ASAPConfig)) Summary {
	b.Helper()
	ablateOnce.Do(func() { ablateLab, ablateErr = experiments.NewLab(experiments.ScaleTiny()) })
	if ablateErr != nil {
		b.Fatal(ablateErr)
	}
	acfg := ablateLab.Scale.ASAPConfig(core.RW)
	mutate(&acfg)
	sys := sim.NewSystem(ablateLab.U, ablateLab.Tr, overlay.Crawled, ablateLab.Net, ablateLab.Scale.Seed)
	return sim.Run(sys, core.New(acfg), sim.RunOptions{})
}

// BenchmarkAblationAdsRequestRadius sweeps h ∈ {0,1,2} (DESIGN.md D3).
func BenchmarkAblationAdsRequestRadius(b *testing.B) {
	for _, h := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				sum = ablationRun(b, func(c *ASAPConfig) { c.AdsRequestHops = h })
			}
			b.ReportMetric(sum.SuccessRate*100, "succ-%")
			b.ReportMetric(sum.MeanSearchBytes/1024, "KB/search")
		})
	}
}

// BenchmarkAblationCacheCapacity sweeps the per-node ads-cache bound
// (DESIGN.md D4).
func BenchmarkAblationCacheCapacity(b *testing.B) {
	for _, cap := range []int{25, 50, 100, 400} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				sum = ablationRun(b, func(c *ASAPConfig) { c.CacheCapacity = cap })
			}
			b.ReportMetric(sum.SuccessRate*100, "succ-%")
			b.ReportMetric(sum.OneHopRate*100, "one-hop-%")
		})
	}
}

// BenchmarkAblationRefreshPeriod sweeps the refresh-ad period (DESIGN.md
// D6); 0 disables refreshing entirely.
func BenchmarkAblationRefreshPeriod(b *testing.B) {
	for _, period := range []int{0, 6, 12, 60} {
		b.Run(fmt.Sprintf("period=%ds", period), func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				sum = ablationRun(b, func(c *ASAPConfig) {
					c.RefreshPeriodSec = period
				})
			}
			b.ReportMetric(sum.SuccessRate*100, "succ-%")
			b.ReportMetric(sum.LoadMeanKBps, "KBps")
		})
	}
}

// BenchmarkAblationFilterSizing contrasts the paper's fixed filter
// geometry with the variable-length alternative it describes (DESIGN.md
// D1), end to end: ad traffic shrinks, success holds.
func BenchmarkAblationFilterSizing(b *testing.B) {
	for _, variable := range []bool{false, true} {
		name := "fixed"
		if variable {
			name = "variable"
		}
		b.Run(name, func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				sum = ablationRun(b, func(c *ASAPConfig) { c.VariableFilters = variable })
			}
			b.ReportMetric(sum.SuccessRate*100, "succ-%")
			b.ReportMetric(sum.LoadMeanKBps, "KBps")
			b.ReportMetric(float64(sum.WarmupBytes)/(1<<20), "warmup-MB")
		})
	}
}

// BenchmarkSuperPeerMode contrasts flat ASAP(RW) with the hierarchical
// deployment of the paper's footnote 3 at equal workload: only the ~10%
// super-peer backbone represents, delivers, caches and processes ads.
func BenchmarkSuperPeerMode(b *testing.B) {
	ablateOnce.Do(func() { ablateLab, ablateErr = experiments.NewLab(experiments.ScaleTiny()) })
	if ablateErr != nil {
		b.Fatal(ablateErr)
	}
	lab := ablateLab
	b.Run("flat", func(b *testing.B) {
		var sum Summary
		for i := 0; i < b.N; i++ {
			sys := sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, lab.Scale.Seed)
			sum = sim.Run(sys, core.New(lab.Scale.ASAPConfig(core.RW)), sim.RunOptions{})
		}
		b.ReportMetric(sum.SuccessRate*100, "succ-%")
		b.ReportMetric(sum.MeanRespMS, "resp-ms")
		b.ReportMetric(sum.LoadMeanKBps, "KBps")
	})
	b.Run("hierarchical", func(b *testing.B) {
		var sum Summary
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewPCG(lab.Scale.Seed, 0x77))
			hosts := lab.Net.RandomNodes(len(lab.Tr.Peers), rng)
			g := overlay.NewSuperPeer(lab.Net, hosts, lab.Tr.InitialLive,
				overlay.DefaultSuperFraction, overlay.DefaultSuperDegree, rng)
			sys := sim.NewSystemWithGraph(lab.U, lab.Tr, g)
			cfg := lab.Scale.ASAPConfig(core.RW)
			cfg.Hierarchical = true
			sum = sim.Run(sys, core.New(cfg), sim.RunOptions{})
		}
		b.ReportMetric(sum.SuccessRate*100, "succ-%")
		b.ReportMetric(sum.MeanRespMS, "resp-ms")
		b.ReportMetric(sum.LoadMeanKBps, "KBps")
	})
}

// BenchmarkAblationMinResults sweeps the multi-result demand of Table I's
// "if more responses needed" clause.
func BenchmarkAblationMinResults(b *testing.B) {
	for _, r := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("min=%d", r), func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				sum = ablationRun(b, func(c *ASAPConfig) { c.MinResults = r })
			}
			b.ReportMetric(sum.MeanHits, "hits/search")
			b.ReportMetric(sum.MeanSearchBytes/1024, "KB/search")
			b.ReportMetric(sum.SuccessRate*100, "succ-%")
		})
	}
}

// BenchmarkAblationBiasedDelivery contrasts uniform ad walks with
// interest-biased forwarding at equal budget.
func BenchmarkAblationBiasedDelivery(b *testing.B) {
	for _, biased := range []bool{false, true} {
		name := "uniform"
		if biased {
			name = "biased"
		}
		b.Run(name, func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				sum = ablationRun(b, func(c *ASAPConfig) { c.BiasedDelivery = biased })
			}
			b.ReportMetric(sum.SuccessRate*100, "succ-%")
			b.ReportMetric(sum.OneHopRate*100, "one-hop-%")
		})
	}
}

// BenchmarkAblationUpdateBudget sweeps the post-warm-up delivery budget
// divisor that calibrates Fig. 7 (DESIGN.md §2).
func BenchmarkAblationUpdateBudget(b *testing.B) {
	for _, div := range []int{1, 4, 12, 48} {
		b.Run(fmt.Sprintf("div=%d", div), func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				sum = ablationRun(b, func(c *ASAPConfig) { c.UpdateBudgetDiv = div })
			}
			b.ReportMetric(sum.LoadMeanKBps, "KBps")
			b.ReportMetric(sum.SuccessRate*100, "succ-%")
		})
	}
}
