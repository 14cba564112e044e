package core

import (
	"math"
	"testing"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// benchQueryProbes derives the probe set of the shared trace's first query
// and returns it together with the warmed node holding the largest cache —
// the densest scan the replay performs.
func benchQueryProbes(tb testing.TB, s *Scheme) (overlay.NodeID, []bloom.Probe) {
	tb.Helper()
	var terms []content.Keyword
	for i := range testTr.Events {
		if testTr.Events[i].Kind == trace.Query {
			terms = testTr.Events[i].Terms
			break
		}
	}
	if terms == nil {
		tb.Fatal("shared trace has no query event")
	}
	var keys []uint64
	for _, term := range terms {
		keys = append(keys, uint64(term))
	}
	probes := bloom.AppendKeyProbes(nil, keys)

	best, bestLen := overlay.NodeID(-1), 0
	for v := 0; v < s.sys.NumNodes(); v++ {
		if n := s.CacheSize(overlay.NodeID(v)); n > bestLen {
			best, bestLen = overlay.NodeID(v), n
		}
	}
	if best < 0 {
		tb.Fatal("warm-up cached no ads anywhere")
	}
	return best, probes
}

// TestScanHotPathAllocs is the replay-side zero-alloc gate (wired into
// `make alloc-gate`): once one warmed pass has grown the query
// accumulator's per-group buffers, a full reset + bit-sliced cache scan +
// serveAds walk must not allocate at all.
func TestScanHotPathAllocs(t *testing.T) {
	s, _ := attach(t, RW)
	p, probes := benchQueryProbes(t, s)
	ns := &s.nodes[p]
	interests := s.groupInterests(p)

	var qa queryAcc
	var srcs []overlay.NodeID
	scan := func() {
		qa.reset(&s.slots, probes)
		srcs = ns.scanCache(&qa, minClock, math.MaxInt, srcs[:0])
	}
	scan()
	if a := testing.AllocsPerRun(20, scan); a != 0 {
		t.Errorf("scanCache allocates %.1f times per query, want 0", a)
	}

	var serve []*adSnapshot
	offer := func() {
		qa.reset(&s.slots, probes)
		serve = ns.serveAds(&qa, serve[:0], interests, -1, p, 1<<30)
	}
	offer()
	if a := testing.AllocsPerRun(20, offer); a != 0 {
		t.Errorf("serveAds allocates %.1f times per request, want 0", a)
	}
}

// BenchmarkScanChains measures phase 1's cache scan — probe-position
// derivation, the tile-major match pass over the whole geometry group and
// the per-slot bit tests — against the warmed node with the largest cache. The name is kept from
// the posting-chain implementation this path replaced so perf history
// stays comparable across BENCH records.
func BenchmarkScanChains(b *testing.B) {
	s := benchScheme(b, RW)
	p, probes := benchQueryProbes(b, s)
	ns := &s.nodes[p]

	var qa queryAcc
	var srcs []overlay.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qa.reset(&s.slots, probes)
		srcs = ns.scanCache(&qa, minClock, math.MaxInt, srcs[:0])
	}
	b.ReportMetric(float64(len(ns.live())), "cached-ads")
	b.ReportMetric(float64(len(srcs)), "candidates")
}
