package serve

import (
	"fmt"

	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/faults"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Warm builds a serving node from a lab preset: it constructs the system
// for the given topology, attaches the named ASAP scheme, replays the
// whole trace (queries included, so the ad caches carry a realistic
// working set), and wraps the warm state in a Node with its virtual clock
// at the trace horizon. The system's ledger holds the warm-up replay's
// bookings and keeps accumulating as the caller drives further state
// through the node.
func Warm(lab *experiments.Lab, schemeName string, topo overlay.Kind, cfg Config) (*Node, error) {
	raw, err := lab.NewScheme(schemeName)
	if err != nil {
		return nil, err
	}
	sch, ok := raw.(*core.Scheme)
	if !ok {
		return nil, fmt.Errorf("serve: scheme %q has no read-only serving path (ASAP schemes only)", schemeName)
	}
	sys := sim.NewSystem(lab.U, lab.Tr, topo, lab.Net, lab.Scale.Seed)
	if lab.Scale.LossRate > 0 {
		sys.SetFaults(faults.New(faults.Config{Seed: lab.Scale.Seed, LossRate: lab.Scale.LossRate}))
	}
	st := sim.NewStepper(sys, sch, 0)
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		for _, ev := range batch {
			st.Record(ev, sch.Search(ev))
		}
	}
	st.Finish()
	n := NewNode(sys, sch, cfg)
	n.Apply(lab.Tr.Span(), nil) // position the serving clock at the horizon
	return n, nil
}
