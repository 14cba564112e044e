package experiments

import (
	"fmt"
	"strings"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/netmodel"
	"asap/internal/trace"
)

// Scale bundles every configuration knob of one experiment size.
type Scale struct {
	Name    string
	Net     netmodel.Config
	Content content.Config
	Trace   trace.Config
	// Factor is the linear reduction relative to the paper's scale; ASAP's
	// size-coupled knobs shrink by it.
	Factor float64
	// RefreshPeriodSec overrides the ASAP refresh period (0 keeps the
	// core default scaled by Factor).
	RefreshPeriodSec int
	// MatrixWorkers bounds RunMatrix's scheme×topology fan-out (0 =
	// GOMAXPROCS). Runs are independent, so the worker count never
	// changes the Matrix (see TestRunMatrixParallelDeterminism).
	MatrixWorkers int
	// LossRate attaches a fault plane dropping this fraction of messages
	// (0 = reliable network, the paper's model). Drops are a pure function
	// of the lab seed and each message's identity, so lossy runs stay as
	// deterministic as reliable ones (see internal/faults).
	LossRate float64
	Seed     uint64
}

// ScaleFull is the paper's configuration.
func ScaleFull() Scale {
	return Scale{
		Name:    "full",
		Net:     netmodel.DefaultConfig(),
		Content: content.DefaultConfig(),
		Trace:   trace.DefaultConfig(),
		Factor:  1,
		Seed:    1,
	}
}

// ScaleSmall is a 1/10 linear reduction: 1,000 peers, 3,000 requests over
// a proportionally smaller physical universe and content snapshot. The
// query rate (λ=8/s), content-change fraction and churn proportions are
// unchanged.
func ScaleSmall() Scale {
	s := ScaleFull()
	s.Name = "small"
	s.Net = netmodel.SmallConfig()
	s.Content = s.Content.Scaled(0.1)
	s.Trace = s.Trace.Scaled(0.1)
	s.Factor = 0.1
	// Scale the refresh period with the trace span so each node refreshes
	// as many times per run as at full scale.
	s.RefreshPeriodSec = 30
	return s
}

// ScaleTiny is a 1/25 reduction for unit tests and the quickstart example.
func ScaleTiny() Scale {
	s := ScaleFull()
	s.Name = "tiny"
	s.Net = netmodel.SmallConfig()
	s.Content = s.Content.Scaled(0.04)
	s.Trace = s.Trace.Scaled(0.04)
	s.Factor = 0.04
	s.RefreshPeriodSec = 12
	return s
}

// presets is the single registry every name-keyed surface derives from:
// ByName, Names, and the CLI help strings all read this slice, so adding a
// preset is one entry here and nothing else.
var presets = []struct {
	name string
	make func() Scale
}{
	{"full", ScaleFull},
	{"small", ScaleSmall},
	{"tiny", ScaleTiny},
}

// Names lists the preset names in registry order.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.name
	}
	return out
}

// ByName resolves a preset name.
func ByName(name string) (Scale, error) {
	for _, p := range presets {
		if p.name == name {
			return p.make(), nil
		}
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (%s)", name, strings.Join(Names(), "|"))
}

// ASAPConfig derives the ASAP configuration for this scale and delivery
// kind.
func (s Scale) ASAPConfig(d core.DeliveryKind) core.Config {
	cfg := core.DefaultConfig(d).Scaled(s.Factor)
	cfg.Seed = s.Seed
	if s.RefreshPeriodSec > 0 {
		cfg.RefreshPeriodSec = s.RefreshPeriodSec
	}
	return cfg
}
