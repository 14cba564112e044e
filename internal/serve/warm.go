package serve

import (
	"fmt"

	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/overlay"
)

// Warm builds a serving node from a lab preset: it replays the whole
// trace under the named ASAP scheme on the given topology through the
// lab's Replay (queries included, so the ad caches carry a realistic
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
	sys, _ := lab.Replay(sch, topo)
	n := NewNode(sys, sch, cfg)
	n.Apply(lab.Tr.Span(), nil) // position the serving clock at the horizon
	return n, nil
}
