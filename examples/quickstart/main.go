// Quickstart: a 60-second tour of the public API.
//
// It builds a small warmed-up ASAP cluster, runs a handful of searches,
// and contrasts the same workload under flooding — the paper's headline
// comparison in miniature.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"asap"
)

func main() {
	sum := run("asap-rw", os.Stdout)
	fmt.Printf("\nASAP(RW): success %.0f%%, mean response %.0f ms, %.2f KB/search\n",
		sum.SuccessRate*100, sum.MeanRespMS, sum.MeanSearchBytes/1024)

	// The same story under flooding: every query blankets the overlay.
	fsum := run("flooding", io.Discard)
	fmt.Printf("flooding: success %.0f%%, mean response %.0f ms, %.2f KB/search\n",
		fsum.SuccessRate*100, fsum.MeanRespMS, fsum.MeanSearchBytes/1024)

	fmt.Printf("\nASAP answers in %.0f%% less time at %.0fx less bandwidth per search.\n",
		(1-sum.MeanRespMS/fsum.MeanRespMS)*100,
		fsum.MeanSearchBytes/sum.MeanSearchBytes)
}

// run builds a 300-peer cluster on a random overlay under scheme (an ASAP
// cluster's ads are already distributed: NewCluster warms the caches),
// runs 20 searches one virtual second apart, narrates each to w, and
// returns the cluster's statistics.
func run(scheme string, w io.Writer) asap.Summary {
	cluster, err := asap.NewCluster(asap.ClusterConfig{
		Nodes:    300,
		Topology: asap.Random,
		Scheme:   scheme,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "cluster up: %d live peers, scheme %s\n\n", cluster.LiveCount(), cluster.SchemeName())

	// Search the way the paper's trace does: a requester asks for a
	// document another live peer shares, within its own interests.
	for i := 0; i < 20; i++ {
		node, doc, ok := cluster.RandomQuery()
		if !ok {
			log.Fatal("no satisfiable query found")
		}
		res := cluster.SearchForDoc(node, doc, 2)
		status := "MISS"
		if res.Success {
			status = fmt.Sprintf("hit in %d hop(s), %d ms, %d B", res.Hops, res.ResponseMS, res.Bytes)
		}
		fmt.Fprintf(w, "search %2d: node %4d wants %q doc %-6d → %s\n",
			i+1, node, cluster.ClassOf(doc), doc, status)
		cluster.Advance(1)
	}
	return cluster.Stats()
}
