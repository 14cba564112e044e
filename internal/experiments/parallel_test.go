package experiments

import (
	"reflect"
	"testing"

	"asap/internal/overlay"
	"asap/internal/sim"
)

// TestRunMatrixParallelDeterminism: the matrix worker count must not change
// a single field of any cell, summary or ledger — the contract that lets
// RunMatrix default to GOMAXPROCS workers without perturbing figure
// output. The progress callback deliberately mutates unsynchronised state:
// RunMatrix promises to serialise progress calls, and `go test -race`
// holds it to that.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	lab, _ := sharedTiny(t)
	seq, err := matrixAt(t, lab, 1, nil, nil, nil)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	calls := 0
	par, err := matrixAt(t, lab, 8, nil, nil, func(string, overlay.Kind) { calls++ })
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if want := len(SchemeNames) * len(overlay.Kinds); calls != want {
		t.Errorf("progress called %d times, want %d", calls, want)
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("cell %d (%s) differs:\nseq: %+v\npar: %+v", i, seq[i].Key(), seq[i].Summary, par[i].Summary)
		}
	}
}

// TestMatrixClonedMatchesFresh: cells run over the lab's cloned topology
// prototypes must equal replays over a system built from scratch with
// sim.NewSystem — the pre-optimization behaviour.
func TestMatrixClonedMatchesFresh(t *testing.T) {
	lab, _ := sharedTiny(t)
	schemes := []string{"flooding", "asap-rw"}
	topos := []overlay.Kind{overlay.Crawled}
	cloned, err := matrixAt(t, lab, 1, schemes, topos, nil)
	if err != nil {
		t.Fatalf("cloned: %v", err)
	}
	for _, c := range cloned {
		sch, err := lab.NewScheme(c.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.NewSystem(lab.U, lab.Tr, c.Topo, lab.Net, lab.Scale.Seed)
		fresh := sim.Run(sys, sch, sim.RunOptions{})
		if !reflect.DeepEqual(fresh, c.Summary) || !reflect.DeepEqual(sys.Load, c.Load) {
			t.Fatalf("%s: cloned-prototype cell differs from the fresh-graph replay", c.Key())
		}
	}
}

// TestRunMatrixParallelPropagatesErrors: a bad scheme name must surface as
// an error from the parallel path, not a hang or partial matrix.
func TestRunMatrixParallelPropagatesErrors(t *testing.T) {
	lab, _ := sharedTiny(t)
	if _, err := matrixAt(t, lab, 4, []string{"bogus"}, nil, nil); err == nil {
		t.Error("parallel RunMatrix accepted bogus scheme")
	}
}

// TestScaleMatrixWorkersFlows: Scale.MatrixWorkers reaches RunMatrix, and
// three workers give the shared (GOMAXPROCS-worker) matrix.
func TestScaleMatrixWorkersFlows(t *testing.T) {
	lab, mat := sharedTiny(t)
	cells, err := matrixAt(t, lab, 3, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(MatrixOf(cells), mat) {
		t.Fatal("MatrixWorkers=3 run differs from the shared matrix")
	}
}

// TestSweepsWorkerDeterminism: the seed sweep (at 5 % loss) and the loss
// sweep run their cells through RunMatrix's worker pool; their tables and
// every cell, ledgers included, are identical at 1 and 4 workers.
func TestSweepsWorkerDeterminism(t *testing.T) {
	schemes, topo := []string{"random-walk", "asap-rw"}, overlay.Crawled
	type tables struct {
		seeds []SeedSweep
		loss  LossSweep
	}
	run := func(workers int) tables {
		sc := ScaleTiny()
		sc.MatrixWorkers = workers
		lossy := sc
		lossy.LossRate = 0.05
		seeds, err := RunSeeds(lossy, schemes, []overlay.Kind{topo}, []uint64{1, 2})
		if err != nil {
			t.Fatalf("seeds (%d workers): %v", workers, err)
		}
		loss, err := RunLossSweep(sc, schemes, topo, []float64{0, 0.05})
		if err != nil {
			t.Fatalf("loss (%d workers): %v", workers, err)
		}
		return tables{seeds, loss}
	}
	seq, par := run(1), run(4)
	if a, b := FormatSeedSweeps(seq.seeds, 0.05), FormatSeedSweeps(par.seeds, 0.05); a != b {
		t.Errorf("seed table differs across worker counts:\n%s\n%s", a, b)
	}
	if a, b := FormatLossSweep(seq.loss), FormatLossSweep(par.loss); a != b {
		t.Errorf("loss table differs across worker counts:\n%s\n%s", a, b)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("sweep cells differ across worker counts")
	}
}
