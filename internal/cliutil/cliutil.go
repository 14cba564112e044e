// Package cliutil holds the flag plumbing shared by the repo's commands.
//
// Several flags mean "keep the preset's own default unless the operator
// explicitly said otherwise" — a zero value is a legal explicit choice
// (e.g. -shards 0 forces the unsharded replay even on presets that shard
// by default), so presence must be detected with flag.Visit rather than by
// comparing against the default. asapsim and experiments each grew a copy
// of that sentinel dance and drifted once already; asapnode overrides the
// preset's seed only when -seed was given, the same way.
package cliutil

import (
	"flag"
	"math"
)

// NoOverride marks "flag not given: keep the preset's own default". It is
// an implausible explicit value (one below MaxInt) rather than zero, so an
// explicit zero still overrides.
const NoOverride = int(^uint(0)>>1) - 1

// WasSet reports whether the named flag was explicitly given on the
// command line. Call after flag.Parse.
func WasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// IntOverride returns value when the named flag was explicitly set and
// NoOverride otherwise. Call after flag.Parse, passing the flag's parsed
// value.
func IntOverride(name string, value int) int {
	if WasSet(name) {
		return value
	}
	return NoOverride
}

// ApplyInt folds an IntOverride result into dst: NoOverride leaves the
// preset's default in place, anything else wins.
func ApplyInt(override int, dst *int) {
	if override != NoOverride {
		*dst = override
	}
}

// Float64Override returns value when the named flag was explicitly set
// and NaN (the float sentinel for "not given") otherwise. NaN rather
// than a magic finite value: every finite float, zero included, stays a
// legal explicit choice. Call after flag.Parse.
func Float64Override(name string, value float64) float64 {
	if WasSet(name) {
		return value
	}
	return math.NaN()
}

// ApplyFloat64 folds a Float64Override result into dst: NaN leaves the
// preset's default in place, anything else wins.
func ApplyFloat64(override float64, dst *float64) {
	if !math.IsNaN(override) {
		*dst = override
	}
}
