package asap

// BenchmarkReplaySmall measures one end-to-end small-scale replay of the
// reference scheme (ASAP over random walks, crawled topology) — attach,
// warm-up and the full event loop. This is the replay-phase headline the
// flattened data plane (bit-sliced signature scans, batched dispatch,
// pooled envelopes; DESIGN.md §12) optimises; `make bench-replay` runs it
// as a smoke test. Repeated wall-clock measurement lives in bench/.

import (
	"testing"

	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/overlay"
	"asap/internal/sim"
)

func BenchmarkReplaySmall(b *testing.B) {
	lab, err := experiments.NewLab(experiments.ScaleSmall())
	if err != nil {
		b.Fatal(err)
	}
	var sum Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, lab.Scale.Seed)
		sum = sim.Run(sys, core.New(lab.Scale.ASAPConfig(core.RW)), sim.RunOptions{})
	}
	b.ReportMetric(sum.SuccessRate*100, "succ-%")
	b.ReportMetric(float64(sum.Requests)/b.Elapsed().Seconds()*float64(b.N), "req/s")
}
