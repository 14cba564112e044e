// Package cliutil holds the flag plumbing shared by the repo's commands.
//
// Some flags mean "keep the preset's own default unless the operator
// explicitly said otherwise", so presence is detected with flag.Visit
// rather than by comparing against the flag's default: asapload's -rate
// keeps the preset trace's λ unless given, and asapnode and asapload
// override the preset's seed only when -seed was given.
package cliutil

import (
	"flag"
	"math"
)

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
