package main

import (
	"io"
	"slices"
	"testing"

	"asap"
)

// TestActsGoAsNarrated holds the story the example tells: the everyday
// search and the search for the freshly shared track are answered, and
// after the track's holder has left, a search for it succeeds exactly when
// a live peer still shares a document under its search terms (searches
// match keywords, not document ids).
func TestActsGoAsNarrated(t *testing.T) {
	c, track, acts := play(io.Discard)
	for i, res := range acts[:2] {
		if !res.Success {
			t.Errorf("act %d: the search missed: %+v", i+1, res)
		}
	}
	kws := c.Keywords(track)
	terms := kws[:min(2, len(kws))]
	if survives := sharedByLivePeer(c, terms); acts[2].Success != survives {
		t.Errorf("act 3: search success %v, but a live peer sharing terms %v: %v", acts[2].Success, terms, survives)
	}
}

// sharedByLivePeer reports whether a live peer shares a document carrying
// every one of terms.
func sharedByLivePeer(c *asap.Cluster, terms []asap.Keyword) bool {
	for n := asap.NodeID(0); int(n) < c.NumNodes(); n++ {
		if !c.Alive(n) {
			continue
		}
		for _, d := range c.Docs(n) {
			kws := c.Keywords(d)
			if !slices.ContainsFunc(terms, func(t asap.Keyword) bool { return !slices.Contains(kws, t) }) {
				return true
			}
		}
	}
	return false
}
