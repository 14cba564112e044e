package main

import (
	"testing"

	"asap"
)

// TestHierarchyTradesLatencyForSuccess runs the example's two deployments
// and holds the claim its table shows: the super-peer hierarchy answers
// more searches than the flat overlay, and answers them more slowly (the
// extra uplink hop per leaf search).
func TestHierarchyTradesLatencyForSuccess(t *testing.T) {
	flat := run(asap.Crawled, "flat").sum
	hier := run(asap.SuperPeer, "hier").sum
	if hier.SuccessRate <= flat.SuccessRate {
		t.Errorf("success: hierarchy %.3f, flat %.3f; want the hierarchy higher", hier.SuccessRate, flat.SuccessRate)
	}
	if hier.MeanRespMS <= flat.MeanRespMS {
		t.Errorf("response: hierarchy %.0f ms, flat %.0f ms; want the hierarchy slower", hier.MeanRespMS, flat.MeanRespMS)
	}
}
