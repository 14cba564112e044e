package main

import (
	"io"
	"testing"
)

// TestASAPBeatsFlooding holds the claim the example prints: on the same
// workload ASAP(RW) answers in less time than flooding and spends fewer
// bytes per search.
func TestASAPBeatsFlooding(t *testing.T) {
	rw := run("asap-rw", io.Discard)
	fl := run("flooding", io.Discard)
	if rw.MeanRespMS >= fl.MeanRespMS {
		t.Errorf("response: asap-rw %.0f ms, flooding %.0f ms; want asap-rw faster", rw.MeanRespMS, fl.MeanRespMS)
	}
	if rw.MeanSearchBytes >= fl.MeanSearchBytes {
		t.Errorf("bytes/search: asap-rw %.0f, flooding %.0f; want asap-rw cheaper", rw.MeanSearchBytes, fl.MeanSearchBytes)
	}
}
