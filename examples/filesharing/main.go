// Filesharing walks through the paper's motivating scenario — a music
// file-sharing network à la Napster/eDonkey — at the level of individual
// peers and documents:
//
//  1. a listener searches for a track and gets a one-hop answer from its
//     local ads cache;
//
//  2. a peer starts sharing a new track; ASAP pushes a patch ad, and the
//     track becomes findable by interested peers without any of them
//     issuing a single flooded query;
//
//  3. the track's holder logs off; a search finds a copy another peer
//     shares under the same keywords, or fails gracefully and the stale
//     ad is dropped on the first failed confirmation.
//
//     go run ./examples/filesharing
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"asap"
)

func main() {
	play(os.Stdout)
}

// play runs the three acts on one cluster, narrates them to w, and returns
// the cluster, the track shared in act 2 and each act's search result.
func play(w io.Writer) (cluster *asap.Cluster, newTrack asap.DocID, acts [3]asap.Result) {
	cluster, err := asap.NewCluster(asap.ClusterConfig{
		Nodes:    400,
		Reserve:  8,
		Topology: asap.Crawled, // the paper's "real network" topology
		Scheme:   "asap-fld",   // broadest ad distribution for the demo
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "music-sharing overlay: %d peers (crawled topology)\n\n", cluster.LiveCount())

	// --- Act 1: an everyday search -------------------------------------
	listener, track, ok := cluster.RandomQuery()
	if !ok {
		log.Fatal("no query available")
	}
	fmt.Fprintf(w, "act 1: peer %d (interests: %v) searches for a %q track\n",
		listener, cluster.Interests(listener), cluster.ClassOf(track))
	acts[0] = cluster.SearchForDoc(listener, track, 2)
	report(w, acts[0])

	// --- Act 2: new content propagates ----------------------------------
	cluster.Advance(5)
	uploader, newTrack := findUploader(cluster)
	fmt.Fprintf(w, "\nact 2: peer %d starts sharing doc %d (%q)\n",
		uploader, newTrack, cluster.ClassOf(newTrack))
	if err := cluster.AddDocument(uploader, newTrack); err != nil {
		log.Fatal(err)
	}

	fan := findInterestedPeer(cluster, uploader, newTrack)
	fmt.Fprintf(w, "       peer %d (same interest) searches for it\n", fan)
	acts[1] = cluster.SearchForDoc(fan, newTrack, 2)
	report(w, acts[1])

	// --- Act 3: churn ----------------------------------------------------
	cluster.Advance(5)
	fmt.Fprintf(w, "\nact 3: peer %d logs off without telling anyone\n", uploader)
	if err := cluster.Leave(uploader); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "       peer %d searches again (holder gone)\n", fan)
	acts[2] = cluster.SearchForDoc(fan, newTrack, 2)
	if res := acts[2]; res.Success {
		fmt.Fprintf(w, "       found a surviving copy: %d ms via %d hop(s)\n", res.ResponseMS, res.Hops)
	} else {
		fmt.Fprintf(w, "       MISS — the only copy left with its holder; the stale ad was dropped\n")
	}

	sum := cluster.Stats()
	fmt.Fprintf(w, "\nsession stats: %d searches, %.0f%% success, %.0f ms mean response\n",
		sum.Requests, sum.SuccessRate*100, sum.MeanRespMS)
	return cluster, newTrack, acts
}

func report(w io.Writer, res asap.Result) {
	if res.Success {
		fmt.Fprintf(w, "       FOUND in %d hop(s): %d ms, %d bytes of search traffic\n",
			res.Hops, res.ResponseMS, res.Bytes)
	} else {
		fmt.Fprintf(w, "       MISS (%d bytes spent)\n", res.Bytes)
	}
}

// findUploader picks a live peer and a document it could plausibly start
// sharing (interesting to it, not yet shared, and currently unshared by
// anyone so act 3 can make it disappear).
func findUploader(c *asap.Cluster) (asap.NodeID, asap.DocID) {
	shared := map[asap.DocID]bool{}
	for n := 0; n < c.NumNodes(); n++ {
		for _, d := range c.Docs(asap.NodeID(n)) {
			shared[d] = true
		}
	}
	for n := 0; n < c.NumNodes(); n++ {
		node := asap.NodeID(n)
		if !c.Alive(node) {
			continue
		}
		for d := 0; d < c.NumDocs(); d++ {
			doc := asap.DocID(d)
			if !shared[doc] && c.Interests(node).Has(c.ClassOf(doc)) {
				return node, doc
			}
		}
	}
	log.Fatal("no candidate uploader")
	return 0, 0
}

// findInterestedPeer returns a live peer other than skip that is
// interested in the document's class.
func findInterestedPeer(c *asap.Cluster, skip asap.NodeID, d asap.DocID) asap.NodeID {
	for n := 0; n < c.NumNodes(); n++ {
		node := asap.NodeID(n)
		if node != skip && c.Alive(node) && c.Interests(node).Has(c.ClassOf(d)) {
			return node
		}
	}
	log.Fatal("no interested peer")
	return 0
}
