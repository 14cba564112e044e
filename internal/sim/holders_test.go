package sim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// bruteHolders scans every node's documents: keyword → sorted holders.
func bruteHolders(sys *System) map[content.Keyword][]overlay.NodeID {
	want := make(map[content.Keyword][]overlay.NodeID)
	for n := 0; n < sys.NumNodes(); n++ {
		for _, d := range sys.Docs(overlay.NodeID(n)) {
			for _, kw := range sys.U.Keywords(d) {
				if h := want[kw]; len(h) == 0 || h[len(h)-1] != overlay.NodeID(n) {
					want[kw] = append(h, overlay.NodeID(n))
				}
			}
		}
	}
	return want
}

// holdersOf returns the index's holders of kw, sorted.
func holdersOf(sys *System, kw content.Keyword) []overlay.NodeID {
	base, extra := sys.holders.of(kw)
	got := slices.Concat(base, extra)
	slices.Sort(got)
	return got
}

// checkHolders holds the keyword-major index to the brute-force scan for
// every keyword either side knows, as sets without duplicates.
func checkHolders(t *testing.T, sys *System, when string) map[content.Keyword][]overlay.NodeID {
	t.Helper()
	want := bruteHolders(sys)
	kws := make(map[content.Keyword]bool)
	for kw := range want {
		kws[kw] = true
	}
	for kw := range sys.holders.cnt {
		kws[content.Keyword(kw)] = true
	}
	for kw := range sys.holders.extra {
		kws[kw] = true
	}
	for kw := range kws {
		if got := holdersOf(sys, kw); !slices.Equal(got, want[kw]) {
			t.Fatalf("%s: keyword %d held by %v in the index, %v by scan", when, kw, got, want[kw])
		}
	}
	return want
}

// The holders index is the exact transpose of the per-node indexes at
// construction and after any sequence of content events — adds that
// overflow a full base segment, a node's last document for a keyword
// removed and re-added, duplicates, removals of absent documents — and
// RarestHolders returns the holders of the query's least-held term, hence
// every node NodeMatches accepts.
func TestHoldersIndexMatchesScanUnderContentEvents(t *testing.T) {
	sys := newTestSystem(t)
	checkHolders(t, sys, "at construction")
	if sys.holders.extra != nil || len(sys.holders.arena) != int(sys.holders.off[len(sys.holders.cnt)]) {
		t.Fatal("holders arena is not exactly full at construction")
	}

	rng := rand.New(rand.NewPCG(5, 6))
	apply := func(kind trace.Kind, n overlay.NodeID, d content.DocID) {
		sys.ApplyEvent(&trace.Event{Kind: kind, Node: n, Doc: d})
	}
	// A few hot nodes take most events, so their segments overflow, drain
	// and refill; the rest of the overlay sees the occasional one.
	hot := []overlay.NodeID{3, 17, 42, 99, 250}
	type holding struct {
		n overlay.NodeID
		d content.DocID
	}
	var removed []holding
	for step := 0; step < 12000; step++ {
		n := hot[rng.IntN(len(hot))]
		if rng.IntN(8) == 0 {
			n = overlay.NodeID(rng.IntN(sys.NumNodes()))
		}
		docs := sys.Docs(n)
		switch op := rng.IntN(10); {
		case op < 3: // a document new to the node, usually
			apply(trace.ContentAdd, n, content.DocID(rng.IntN(sys.U.NumDocs())))
		case op < 4 && len(docs) > 0: // a duplicate
			apply(trace.ContentAdd, n, docs[rng.IntN(len(docs))])
		case op < 7 && len(docs) > 0:
			d := docs[rng.IntN(len(docs))]
			apply(trace.ContentRemove, n, d)
			removed = append(removed, holding{n, d})
		case op < 8: // an absent document, usually
			apply(trace.ContentRemove, n, content.DocID(rng.IntN(sys.U.NumDocs())))
		case len(removed) > 0: // back into the slots its removal freed
			r := removed[rng.IntN(len(removed))]
			apply(trace.ContentAdd, r.n, r.d)
		}
		if step%1500 == 0 {
			checkHolders(t, sys, "mid-sequence")
		}
	}
	// Drain one hot node entirely, then give it back one document.
	for len(sys.Docs(hot[0])) > 0 {
		apply(trace.ContentRemove, hot[0], sys.Docs(hot[0])[0])
	}
	checkHolders(t, sys, "after draining a node")
	apply(trace.ContentAdd, hot[0], 7)
	want := checkHolders(t, sys, "at the end")
	if sys.holders.extra == nil {
		t.Fatal("no holder ever overflowed its base segment")
	}

	holders := func(terms []content.Keyword) []overlay.NodeID {
		base, extra := sys.RarestHolders(terms)
		got := slices.Concat(base, extra)
		slices.Sort(got)
		return got
	}
	for q := 0; q < 2000; q++ {
		// Terms of one document (so some node matches), sometimes crossed
		// with another document's (so usually none does).
		kws := sys.U.Keywords(content.DocID(rng.IntN(sys.U.NumDocs())))
		terms := []content.Keyword{kws[rng.IntN(len(kws))]}
		for len(terms) < 1+q%3 {
			if rng.IntN(4) == 0 {
				kws = sys.U.Keywords(content.DocID(rng.IntN(sys.U.NumDocs())))
			}
			terms = append(terms, kws[rng.IntN(len(kws))])
		}
		got := holders(terms)
		fewest := want[terms[0]]
		for _, kw := range terms[1:] {
			if len(want[kw]) < len(fewest) {
				fewest = want[kw]
			}
		}
		if len(got) != len(fewest) || len(got) > 0 && !slices.ContainsFunc(terms, func(kw content.Keyword) bool {
			return slices.Equal(got, want[kw])
		}) {
			t.Fatalf("query %v: RarestHolders = %v, want the %d holders of its least-held term", terms, got, len(fewest))
		}
		for n := 0; n < sys.NumNodes(); n++ {
			if _, ok := slices.BinarySearch(got, overlay.NodeID(n)); !ok && sys.NodeMatches(overlay.NodeID(n), terms) {
				t.Fatalf("query %v: node %d matches but is not among RarestHolders %v", terms, n, got)
			}
		}
	}

	var held content.Keyword
	for kw := range want {
		held = kw
		break
	}
	if got := holders([]content.Keyword{held, held}); !slices.Equal(got, want[held]) {
		t.Errorf("repeated term %d: RarestHolders = %v, want %v", held, got, want[held])
	}
	for _, terms := range [][]content.Keyword{nil, {}, {0}, {0xFFFFFF}, {held, 0xFFFFFF}, {0, held}} {
		if base, extra := sys.RarestHolders(terms); len(base)+len(extra) != 0 {
			t.Errorf("RarestHolders(%v) = %v + %v, want no holder", terms, base, extra)
		}
	}
}
