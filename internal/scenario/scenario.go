// Package scenario is the declarative adversarial-workload engine: a
// Scenario is a warm-up phase (the paper's ad pre-distribution, untouched)
// plus an ordered list of timed acts — partitions and heals, flash crowds,
// churn storms, free-rider majorities, interest drift, and topology
// adaptation (rewiring toward interest-similar neighbours).
//
// Acts compile down to the existing deterministic seams. ChurnStorm and
// FlashCrowd become ordinary trace events (Leave/Join and Query) merged
// into the base trace; Partition/Heal, FreeRiders, InterestDrift, and
// Rewire become trace.Directive events whose payload indexes a staged act
// applied by a sim.Director on the runner goroutine, between query
// batches. Every source of randomness is a seeded PCG stream or a pure
// per-node hash of the scenario seed, and every mutation happens at a
// deterministic point of the event order — so a scenario replays
// bit-for-bit on any machine, and each built-in ships as a golden-replay
// regression test.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"asap/internal/content"
	"asap/internal/experiments"
	"asap/internal/overlay"
)

// ActKind names one act type.
type ActKind string

const (
	// Partition splits the overlay into Groups contiguous node-range
	// groups; messages between groups are dropped until a Heal.
	Partition ActKind = "partition"
	// Heal removes the current partition.
	Heal ActKind = "heal"
	// FlashCrowd injects Queries extra queries for content of one Class
	// (Class < 0 picks the most-queried class of the base trace), spread
	// uniformly over [At, At+Duration].
	FlashCrowd ActKind = "flash-crowd"
	// ChurnStorm makes a Frac fraction of the stable population leave
	// during the first half of [At, At+Duration] and rejoin during the
	// second half.
	ChurnStorm ActKind = "churn-storm"
	// FreeRiders marks a Frac fraction of nodes (pure per-node hash) as
	// free riders: they keep querying and caching but stop publishing and
	// forwarding ads. Frac = 0 lifts the mask.
	FreeRiders ActKind = "free-riders"
	// InterestDrift rotates the interest classes of a Frac fraction of
	// nodes by Shift positions (mod content.NumClasses).
	InterestDrift ActKind = "interest-drift"
	// Rewire attempts Rewires topology adaptations: a random live node
	// drops one live neighbour sharing no interest class with it and
	// attaches to an interest-similar live non-neighbour instead.
	Rewire ActKind = "rewire"
)

// Act is one timed scenario step. AtMS is virtual time in milliseconds
// from trace start; acts must be listed in non-decreasing AtMS order.
// The remaining fields parameterise the act kind that uses them.
type Act struct {
	AtMS       int64   `json:"at_ms"`
	Kind       ActKind `json:"kind"`
	Groups     int     `json:"groups,omitempty"`      // Partition: group count (default 2)
	Class      int     `json:"class,omitempty"`       // FlashCrowd: content class (< 0 = most-queried)
	Queries    int     `json:"queries,omitempty"`     // FlashCrowd: injected query count
	DurationMS int64   `json:"duration_ms,omitempty"` // FlashCrowd/ChurnStorm: act window
	Frac       float64 `json:"frac,omitempty"`        // ChurnStorm/FreeRiders/InterestDrift: node fraction
	Shift      int     `json:"shift,omitempty"`       // InterestDrift: class rotation distance
	Rewires    int     `json:"rewires,omitempty"`     // Rewire: adaptation attempts
}

// Scenario is one declarative adversarial workload: the base lab
// configuration plus the ordered act list layered onto its trace.
type Scenario struct {
	Name   string  `json:"name"`
	Doc    string  `json:"doc,omitempty"`
	Scale  string  `json:"scale"`
	Scheme string  `json:"scheme"`
	Topo   string  `json:"topo"`
	Seed   uint64  `json:"seed"`
	Loss   float64 `json:"loss,omitempty"`
	Acts   []Act   `json:"acts"`
}

// Validate reports the first structural error in the scenario, if any.
// Scale and scheme names are resolved at Stage/Run time against the
// experiments registry; Validate checks everything checkable standalone.
func (sn *Scenario) Validate() error {
	if sn.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if strings.ContainsAny(sn.Name, "/ \t\n") {
		return fmt.Errorf("scenario %s: name must not contain slashes or whitespace", sn.Name)
	}
	if sn.Loss < 0 || sn.Loss >= 1 {
		return fmt.Errorf("scenario %s: loss %v out of [0,1)", sn.Name, sn.Loss)
	}
	if len(sn.Acts) == 0 {
		return fmt.Errorf("scenario %s: no acts", sn.Name)
	}
	prev := int64(0)
	partitioned := false
	for i, a := range sn.Acts {
		where := fmt.Sprintf("scenario %s act %d (%s)", sn.Name, i, a.Kind)
		if a.AtMS < 0 {
			return fmt.Errorf("%s: negative time %d", where, a.AtMS)
		}
		if a.AtMS < prev {
			return fmt.Errorf("%s: out of order (%d < %d)", where, a.AtMS, prev)
		}
		prev = a.AtMS
		switch a.Kind {
		case Partition:
			if a.Groups < 0 || a.Groups > 127 {
				return fmt.Errorf("%s: groups %d out of [0,127]", where, a.Groups)
			}
			if partitioned {
				return fmt.Errorf("%s: already partitioned (heal first)", where)
			}
			partitioned = true
		case Heal:
			if !partitioned {
				return fmt.Errorf("%s: no partition to heal", where)
			}
			partitioned = false
		case FlashCrowd:
			if a.Queries <= 0 {
				return fmt.Errorf("%s: queries %d must be positive", where, a.Queries)
			}
			if a.Class >= content.NumClasses {
				return fmt.Errorf("%s: class %d out of range (max %d)", where, a.Class, content.NumClasses-1)
			}
			if a.DurationMS < 0 {
				return fmt.Errorf("%s: negative duration", where)
			}
		case ChurnStorm:
			if a.Frac <= 0 || a.Frac > 1 {
				return fmt.Errorf("%s: frac %v out of (0,1]", where, a.Frac)
			}
			if a.DurationMS <= 0 {
				return fmt.Errorf("%s: duration %d must be positive", where, a.DurationMS)
			}
		case FreeRiders:
			if a.Frac < 0 || a.Frac > 1 {
				return fmt.Errorf("%s: frac %v out of [0,1]", where, a.Frac)
			}
		case InterestDrift:
			if a.Frac <= 0 || a.Frac > 1 {
				return fmt.Errorf("%s: frac %v out of (0,1]", where, a.Frac)
			}
			if a.Shift <= 0 || a.Shift >= content.NumClasses {
				return fmt.Errorf("%s: shift %d out of [1,%d]", where, a.Shift, content.NumClasses-1)
			}
		case Rewire:
			if a.Rewires <= 0 {
				return fmt.Errorf("%s: rewires %d must be positive", where, a.Rewires)
			}
		default:
			return fmt.Errorf("%s: unknown act kind", where)
		}
	}
	return nil
}

// Load reads a JSON scenario definition from path and validates it.
func Load(path string) (Scenario, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	var sn Scenario
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sn); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parsing %s: %w", path, err)
	}
	if err := sn.Validate(); err != nil {
		return Scenario{}, err
	}
	return sn, nil
}

// Resolve turns a -scenario argument into a Scenario: a registry name
// first, otherwise a JSON file path.
func Resolve(arg string) (Scenario, error) {
	if sn, err := ByName(arg); err == nil {
		return sn, nil
	}
	if _, err := os.Stat(arg); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %q is neither a registered scenario (%s) nor a readable file",
			arg, strings.Join(Names(), ", "))
	}
	return Load(arg)
}

// topoKind resolves a topology name, accepting the paper's three kinds
// plus the super-peer hierarchy.
func topoKind(name string) (overlay.Kind, error) {
	for _, k := range overlay.Kinds {
		if k.String() == name {
			return k, nil
		}
	}
	if overlay.SuperPeerKind.String() == name {
		return overlay.SuperPeerKind, nil
	}
	return 0, fmt.Errorf("scenario: unknown topology %q", name)
}

// scale resolves the scenario's scale preset with its seed applied.
func (sn *Scenario) scale() (experiments.Scale, error) {
	sc, err := experiments.ByName(sn.Scale)
	if err != nil {
		return experiments.Scale{}, err
	}
	sc.Seed = sn.Seed
	return sc, nil
}
