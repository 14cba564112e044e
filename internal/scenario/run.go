package scenario

import (
	"fmt"

	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Result is one scenario replay's outputs: the paper summary, the run's
// ledger and its per-second series (the golden-replay hash input).
type Result struct {
	Scenario Scenario
	Summary  metrics.Summary
	Load     *metrics.LoadAccount
	Series   obs.RunSeries
}

// Build resolves the scenario's lab and stages its acts onto the lab's
// trace. The returned lab's trace is the merged sequence; LossRate is
// forced to 0 on the scale because the staged Install owns the plane.
func Build(sn Scenario) (*experiments.Lab, *Staged, error) {
	sc, err := sn.scale()
	if err != nil {
		return nil, nil, err
	}
	sc.LossRate = 0 // Install owns the fault plane
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return nil, nil, err
	}
	st, err := Stage(sn, lab)
	if err != nil {
		return nil, nil, err
	}
	return lab, st, nil
}

// Run replays one scenario end to end and returns its summary and series.
func Run(sn Scenario) (*Result, error) {
	lab, st, err := Build(sn)
	if err != nil {
		return nil, err
	}
	kind, err := overlay.KindByName(sn.Topo)
	if err != nil {
		return nil, err
	}
	sch, err := lab.NewScheme(sn.Scheme)
	if err != nil {
		return nil, err
	}
	sys := lab.NewSystem(kind)
	st.Install(sys)
	sum := sim.Run(sys, sch, sim.RunOptions{})
	sum.Scheme = sn.Scheme // the full name: a variant runs, prints and keys as itself
	key := fmt.Sprintf("%s/%s/%s", sn.Name, sum.Scheme, sum.Topology)
	return &Result{Scenario: sn, Summary: sum, Load: sys.Load, Series: obs.Series(key, sys.Load)}, nil
}
