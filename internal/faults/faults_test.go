package faults

import (
	"math"
	"testing"

	"asap/internal/metrics"
	"asap/internal/overlay"
)

func TestNilPlaneIsReliable(t *testing.T) {
	var p *Plane
	if p.Active() {
		t.Error("nil plane reports Active")
	}
	if p.LossRate() != 0 {
		t.Error("nil plane has non-zero loss rate")
	}
	for seq := uint32(0); seq < 100; seq++ {
		if p.Drop(metrics.MQuery, 1, 2, 42, seq) {
			t.Fatal("nil plane dropped a message")
		}
		if p.Jitter(metrics.MQuery, 1, 2, 42, seq) != 0 {
			t.Fatal("nil plane jittered a message")
		}
	}
}

func TestZeroLossNeverDrops(t *testing.T) {
	p := New(Config{Seed: 7})
	if p.Active() {
		t.Error("zero-loss plane reports Active")
	}
	for seq := uint32(0); seq < 10000; seq++ {
		if p.Drop(metrics.MConfirm, 3, 9, 1234, seq) {
			t.Fatal("zero-loss plane dropped a message")
		}
	}
}

func TestDropIsDeterministic(t *testing.T) {
	a := New(Config{Seed: 11, LossRate: 0.3})
	b := New(Config{Seed: 11, LossRate: 0.3})
	diff := 0
	for seq := uint32(0); seq < 5000; seq++ {
		x := a.Drop(metrics.MQuery, 5, 17, 99, seq)
		if y := b.Drop(metrics.MQuery, 5, 17, 99, seq); x != y {
			t.Fatalf("seq %d: same plane config disagrees (%v vs %v)", seq, x, y)
		}
		if x != a.Drop(metrics.MQuery, 5, 17, 100, seq) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("drop decisions ignore the stream key")
	}
}

func TestDropRateCalibration(t *testing.T) {
	for _, rate := range []float64{0.01, 0.05, 0.2, 0.5} {
		p := New(Config{Seed: 3, LossRate: rate})
		const n = 200000
		drops := 0
		for seq := uint32(0); seq < n; seq++ {
			if p.Drop(metrics.MAdFull, 1, 2, uint64(seq>>8), seq) {
				drops++
			}
		}
		got := float64(drops) / n
		// 6σ binomial tolerance.
		tol := 6 * math.Sqrt(rate*(1-rate)/n)
		if math.Abs(got-rate) > tol {
			t.Errorf("loss %v: observed %v (outside ±%v)", rate, got, tol)
		}
	}
}

func TestDecisionVariesWithIdentity(t *testing.T) {
	p := New(Config{Seed: 1, LossRate: 0.5})
	// Each perturbation of the message identity must flip the decision for
	// some stream key — i.e. every identity component feeds the hash.
	var flips [4]int
	for key := uint64(0); key < 100; key++ {
		base := p.Drop(metrics.MQuery, 1, 2, key, 0)
		variants := [...]bool{
			p.Drop(metrics.MQueryHit, 1, 2, key, 0),  // class
			p.Drop(metrics.MQuery, 2, 1, key, 0),     // direction
			p.Drop(metrics.MQuery, 1, 2, key+500, 0), // key
			p.Drop(metrics.MQuery, 1, 2, key, 1),     // seq
		}
		for i, v := range variants {
			if v != base {
				flips[i]++
			}
		}
	}
	for i, n := range flips {
		if n == 0 {
			t.Errorf("identity component %d never affected the decision", i)
		}
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	p := New(Config{Seed: 5, JitterMS: 30})
	seen := map[int64]bool{}
	for seq := uint32(0); seq < 2000; seq++ {
		j := p.Jitter(metrics.MQuery, 4, 8, 77, seq)
		if j < 0 || j > 30 {
			t.Fatalf("jitter %d out of [0,30]", j)
		}
		if j != p.Jitter(metrics.MQuery, 4, 8, 77, seq) {
			t.Fatal("jitter is not deterministic")
		}
		seen[j] = true
	}
	if len(seen) < 20 {
		t.Errorf("jitter covers only %d of 31 values over 2000 draws", len(seen))
	}
	if New(Config{Seed: 5}).Jitter(metrics.MQuery, 4, 8, 77, 0) != 0 {
		t.Error("jitter without JitterMS configured")
	}
}

func TestKeyDistinguishesEvents(t *testing.T) {
	seen := map[uint64]bool{}
	for tms := int64(0); tms < 50; tms++ {
		for node := overlay.NodeID(0); node < 50; node++ {
			k := Key(tms, node)
			if seen[k] {
				t.Fatalf("key collision at t=%d node=%d", tms, node)
			}
			seen[k] = true
		}
	}
	if Fold(Key(1, 1), 2) == Key(1, 1) {
		t.Error("Fold is a no-op")
	}
}

// TestPartitionMembership pins the partition semantics: cross-group pairs
// partitioned, same-group pairs not, nil group inert, and Active() lit by
// an engaged partition even at loss 0 (retry machinery must run).
func TestPartitionMembership(t *testing.T) {
	p := New(Config{Seed: 9})
	if p.PartitionEngaged() || p.Partitioned(0, 5) {
		t.Error("fresh plane reports a partition")
	}
	p.SetPartition([]int8{0, 0, 0, 1, 1, 1})
	if !p.PartitionEngaged() || !p.Active() {
		t.Error("engaged partition not reported Active")
	}
	if !p.Partitioned(0, 3) || !p.Partitioned(5, 2) {
		t.Error("cross-group pair not partitioned")
	}
	if p.Partitioned(0, 2) || p.Partitioned(3, 5) {
		t.Error("same-group pair partitioned")
	}
	p.SetPartition(nil)
	if p.PartitionEngaged() || p.Active() || p.Partitioned(0, 3) {
		t.Error("healed plane still partitioned/active")
	}
	var nilPlane *Plane
	if nilPlane.Partitioned(0, 1) || nilPlane.PartitionEngaged() {
		t.Error("nil plane reports a partition")
	}
}

// TestPartitionDoesNotPerturbDropStreams is the stream-key audit: a
// partition verdict is a pure membership lookup, so engaging or healing a
// partition must leave every Drop decision — the loss streams — exactly
// where it was. Any hash-stream consumption by the partition path would
// flip some of these.
func TestPartitionDoesNotPerturbDropStreams(t *testing.T) {
	p := New(Config{Seed: 21, LossRate: 0.3})
	type id struct {
		c        metrics.MsgClass
		src, dst overlay.NodeID
		key      uint64
		seq      uint32
	}
	var ids []id
	var before []bool
	for key := uint64(0); key < 200; key++ {
		for seq := uint32(0); seq < 5; seq++ {
			i := id{metrics.MsgClass(key % 3), overlay.NodeID(key % 7), overlay.NodeID(seq % 5), key, seq}
			ids = append(ids, i)
			before = append(before, p.Drop(i.c, i.src, i.dst, i.key, i.seq))
		}
	}
	check := func(phase string) {
		for k, i := range ids {
			if p.Drop(i.c, i.src, i.dst, i.key, i.seq) != before[k] {
				t.Fatalf("%s: drop decision %d changed", phase, k)
			}
		}
	}
	p.SetPartition([]int8{0, 0, 0, 0, 1, 1, 1})
	check("partition engaged")
	p.SetPartition(nil)
	check("after heal")
}

func TestNewValidates(t *testing.T) {
	for _, cfg := range []Config{{LossRate: -0.1}, {LossRate: 1}, {JitterMS: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestChooseIsUniformAndNamed: a choice stays in [0, n), repeats for the
// same (key, walker, step), and over many steps spreads evenly over the n
// options (a χ² test) for walker 0 and walker 1 alike, whose sequences
// differ.
func TestChooseIsUniformAndNamed(t *testing.T) {
	const draws = 60000
	for _, n := range []int{1, 2, 3, 7, 64} {
		for walker := 0; walker < 2; walker++ {
			counts := make([]int, n)
			for step := 0; step < draws; step++ {
				k := Choose(0xfeed, walker, step, n)
				if k < 0 || k >= n {
					t.Fatalf("n=%d: choice %d out of range", n, k)
				}
				if Choose(0xfeed, walker, step, n) != k {
					t.Fatalf("n=%d: choice (walker %d, step %d) not repeatable", n, walker, step)
				}
				counts[k]++
			}
			// Pearson's χ² over n-1 degrees of freedom, held six standard
			// deviations above its mean.
			chi2, want := 0.0, float64(draws)/float64(n)
			for _, c := range counts {
				chi2 += (float64(c) - want) * (float64(c) - want) / want
			}
			if dof := float64(n - 1); chi2 > dof+6*math.Sqrt(2*dof) {
				t.Errorf("n=%d walker %d: χ² %.1f over %v degrees of freedom: not uniform", n, walker, chi2, dof)
			}
		}
	}
	same := 0
	for step := 0; step < 1000; step++ {
		if Choose(0xfeed, 0, step, 64) == Choose(0xfeed, 1, step, 64) {
			same++
		}
	}
	if same > 50 {
		t.Errorf("walkers 0 and 1 agree on %d of 1000 steps: not independent", same)
	}
}
