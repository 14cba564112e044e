package asap

// The root package's benchmark and alloc gate: BenchmarkRunMatrix times
// one small-scale 6-scheme × 3-topology matrix (`make bench-gate`), and
// TestObsOffHotPathAllocs gates the replay hot paths' allocations. The
// figures themselves are printed by cmd/experiments, and an ablation is a
// scheme-name variant (asap-rw+h=2) run through the same matrix.

import (
	"testing"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

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
