package experiments

import (
	"reflect"
	"testing"

	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// lossySchemes is the subset exercised by the loss-plane tests: one
// baseline per family plus one ASAP variant keeps them fast while still
// crossing every drop site (flood copies, walkers, confirmations, ads
// requests, ad deliveries).
var lossySchemes = []string{"flooding", "random-walk", "asap-fld"}

// TestLossMatrixWorkerDeterminism: with a fault plane attached, the matrix
// must still be identical for any worker count — every drop decision is a
// pure function of the lab seed and the message's identity, never of
// scheduling. This is the property that lets lossy experiments fan out
// like reliable ones.
func TestLossMatrixWorkerDeterminism(t *testing.T) {
	sc := ScaleTiny()
	sc.LossRate = 0.02
	mk := func() *Lab {
		lab, err := NewLab(sc)
		if err != nil {
			t.Fatalf("lab: %v", err)
		}
		return lab
	}
	seq, err := mk().RunMatrixOpt(lossySchemes, []overlay.Kind{overlay.Crawled}, nil, MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := mk().RunMatrixOpt(lossySchemes, []overlay.Kind{overlay.Crawled}, nil, MatrixOptions{Workers: 4})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		for s, per := range seq {
			for k := range per {
				if !reflect.DeepEqual(seq[s][k], par[s][k]) {
					t.Errorf("%s/%s differs:\nseq: %+v\npar: %+v", s, k, seq[s][k], par[s][k])
				}
			}
		}
		t.Fatal("lossy matrix differs across worker counts")
	}
	for s, per := range seq {
		for k, sum := range per {
			if sum.Drops == 0 {
				t.Errorf("%s/%s: 2%% loss produced zero drops", s, k)
			}
		}
	}
}

// TestLossSweepDegradesGracefully: the loss-sweep figure runs, its rate-0
// column is drop-free, and lossy columns actually drop messages.
func TestLossSweepDegradesGracefully(t *testing.T) {
	sw, err := RunLossSweep(ScaleTiny(), []string{"flooding"}, overlay.Crawled, []float64{0, 0.05}, nil)
	if err != nil {
		t.Fatalf("RunLossSweep: %v", err)
	}
	if len(sw.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(sw.Points))
	}
	reliable, lossy := sw.Points[0], sw.Points[1]
	if reliable.Summary.Drops != 0 {
		t.Errorf("rate 0 dropped %d messages", reliable.Summary.Drops)
	}
	if lossy.Summary.Drops == 0 {
		t.Error("rate 0.05 dropped nothing")
	}
	if lossy.Summary.SuccessRate > reliable.Summary.SuccessRate {
		t.Errorf("5%% loss improved success rate: %.3f > %.3f",
			lossy.Summary.SuccessRate, reliable.Summary.SuccessRate)
	}
	if out := FormatLossSweep(sw); len(out) == 0 {
		t.Error("FormatLossSweep returned nothing")
	}
}

// TestLossZeroMatchesNoPlane: a plane configured with loss rate 0 must be
// completely inert — every summary field and every per-second series cell
// (bytes and message counts per class) byte-identical to a run with no plane
// at all. This pins the Active() gating that keeps retry machinery (and its
// accounting) out of the reliable replay, and — for asap-fld, whose refresh
// ticks flood whole wheel slots through one batched traversal when there is
// no plane and copy by copy when there is one — that the two flood paths
// book the same traffic second by second.
func TestLossZeroMatchesNoPlane(t *testing.T) {
	lab, err := NewLab(ScaleTiny())
	if err != nil {
		t.Fatalf("lab: %v", err)
	}
	for _, scheme := range lossySchemes {
		col := obs.NewCollector()
		bare, err := lab.run(scheme, overlay.Crawled, false, col, nil)
		if err != nil {
			t.Fatalf("%s bare: %v", scheme, err)
		}
		sch, err := lab.NewScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		sys := lab.topoProto(overlay.Crawled).NewSystem(lab.U, lab.Tr)
		sys.SetFaults(faults.New(faults.Config{Seed: lab.Scale.Seed, LossRate: 0}))
		planed := sim.Run(sys, sch, sim.RunOptions{})
		if !reflect.DeepEqual(bare, planed) {
			t.Errorf("%s: zero-loss plane changed the summary:\nbare:   %+v\nplaned: %+v", scheme, bare, planed)
		}
		bareSeries := col.Runs()[0]
		if !reflect.DeepEqual(bareSeries, obs.Series(bareSeries.Key, sys.Load)) {
			t.Errorf("%s: zero-loss plane changed the per-second series", scheme)
		}
		if scheme == "asap-fld" && bare.Breakdown[metrics.MAdRefresh] == 0 {
			t.Errorf("%s: no refresh traffic — the replay crossed no refresh tick", scheme)
		}
	}
}

// TestLossUnchangedByInertPartition pins the faults stream-key audit at
// the replay level: a 2%-loss run through a plane whose partition seam was
// exercised (engaged, then healed) before the replay must be byte-identical
// to the plain 2%-loss run. Partition verdicts are pure group-membership
// lookups — they consume no hash stream — so an inert partition plane
// cannot collide with or shift any pre-existing loss stream.
func TestLossUnchangedByInertPartition(t *testing.T) {
	sc := ScaleTiny()
	sc.LossRate = 0.02
	lab, err := NewLab(sc)
	if err != nil {
		t.Fatalf("lab: %v", err)
	}
	for _, scheme := range lossySchemes {
		bare, err := lab.run(scheme, overlay.Crawled, false, nil, nil)
		if err != nil {
			t.Fatalf("%s bare: %v", scheme, err)
		}
		sch, err := lab.NewScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		sys := lab.topoProto(overlay.Crawled).NewSystem(lab.U, lab.Tr)
		pl := faults.New(faults.Config{Seed: lab.Scale.Seed, LossRate: 0.02})
		group := make([]int8, sys.NumNodes())
		for i := range group {
			group[i] = int8(i % 2)
		}
		pl.SetPartition(group) // engage…
		pl.SetPartition(nil)   // …and heal before the replay: plane is inert again
		sys.SetFaults(pl)
		planed := sim.Run(sys, sch, sim.RunOptions{})
		if !reflect.DeepEqual(bare, planed) {
			t.Errorf("%s: inert partition plane changed the 2%%-loss summary:\nbare:   %+v\nplaned: %+v", scheme, bare, planed)
		}
		if planed.Drops == 0 {
			t.Errorf("%s: 2%% loss produced zero drops", scheme)
		}
	}
}
