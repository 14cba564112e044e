// Command asapsim replays one paper-style trace under a single search
// scheme on a single topology and prints the evaluation metrics — the
// workhorse for exploring one configuration at a time.
//
// Usage:
//
//	asapsim [-scale full|small|tiny] [-scheme name] [-topo name]
//	        [-scenario name|file] [-seed n]
//	        [-series] [-seriesdir dir] [-cpuprofile path]
//	        [-memprofile path] [-mutexprofile path] [-pprof addr]
//
// The replay is sequential and a pure function of (preset, seed).
//
// With -scenario, a registered adversarial scenario (or a scenario JSON
// file) is staged and replayed instead: the scenario carries its own
// scale, scheme, topology, seed and loss, so giving any of -scale,
// -scheme, -topo or -seed with it is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/scenario"
)

func main() {
	var (
		scaleName = flag.String("scale", "small", "scale preset: "+strings.Join(experiments.Names(), ", "))
		scheme    = flag.String("scheme", "asap-rw", "search scheme (flooding, random-walk, gsa, asap-fld, asap-rw, asap-gsa); an asap-* name takes config variants, e.g. asap-rw+h=2+cap=400")
		topo      = flag.String("topo", "crawled", "overlay topology (random, powerlaw, crawled, superpeer); on superpeer, ASAP runs footnote 3's super-peer mode")
		scenArg   = flag.String("scenario", "", "replay an adversarial scenario by registry name or JSON file (replaces -scale/-scheme/-topo/-seed); names: "+strings.Join(scenario.Names(), ", "))
		seed      = flag.Uint64("seed", 1, "master seed")
		series    = flag.Bool("series", false, "also print the per-second load series")
		seriesDir = flag.String("seriesdir", "", "write the run's per-second observability series (CSV+JSON) into this directory")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = flag.String("memprofile", "", "write a heap profile to this path on exit")
		mutexProf = flag.String("mutexprofile", "", "write a mutex profile to this path on exit")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf, *mutexProf, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asapsim:", err)
		os.Exit(1)
	}
	if *scenArg != "" {
		if err = scenarioDrops(flag.Visit); err == nil {
			err = runScenario(*scenArg, *series, *seriesDir)
		}
	} else {
		err = run(*scaleName, *scheme, *topo, *seed, *series, *seriesDir)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asapsim:", err)
		os.Exit(1)
	}
}

// scenarioFlags are the flags a scenario replaces with its own values.
var scenarioFlags = []string{"scale", "scheme", "topo", "seed"}

// scenarioDrops names the first flag visit reaches that a scenario run
// would drop, so that no given value is silently ignored.
func scenarioDrops(visit func(func(*flag.Flag))) error {
	var err error
	visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(scenarioFlags, f.Name) {
			err = fmt.Errorf("-scenario does not read -%s: the scenario carries its own", f.Name)
		}
	})
	return err
}

func run(scaleName, scheme, topoName string, seed uint64, series bool, seriesDir string) error {
	sc, err := experiments.ByName(scaleName)
	if err != nil {
		return err
	}
	sc.Seed = seed
	kind, err := overlay.KindByName(topoName)
	if err != nil {
		return err
	}

	start := time.Now()
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "inputs ready in %v: %s\n", time.Since(start).Round(time.Millisecond), lab.Tr.Stats())

	cells, err := lab.RunMatrix([]string{scheme}, []overlay.Kind{kind}, nil)
	if err != nil {
		return err
	}
	c := cells[0]
	if seriesDir != "" {
		files, err := obs.WriteDir(seriesDir, []obs.RunSeries{obs.Series(c.Key(), c.Load)})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d series files to %s\n", len(files), seriesDir)
	}

	printSummary(c.Summary, series)
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Second))
	return nil
}

// runScenario stages and replays one adversarial scenario, printing the
// standard summary block plus the scenario's act counters.
func runScenario(arg string, series bool, seriesDir string) error {
	sn, err := scenario.Resolve(arg)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := scenario.Run(sn)
	if err != nil {
		return err
	}
	if seriesDir != "" {
		files, err := obs.WriteDir(seriesDir, []obs.RunSeries{res.Series})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d series files to %s\n", len(files), seriesDir)
	}
	fmt.Printf("scenario:          %s\n", sn.Name)
	if sn.Doc != "" {
		fmt.Printf("                   %s\n", sn.Doc)
	}
	printSummary(res.Summary, series)
	fmt.Printf("act counters:      part_drops=%d rewires=%d interest_shifts=%d\n",
		res.Load.Total(metrics.CPartDrop), res.Load.Total(metrics.CRewire), res.Load.Total(metrics.CInterestShift))
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Second))
	return nil
}

func printSummary(sum metrics.Summary, series bool) {
	fmt.Printf("scheme:            %s\n", sum.Scheme)
	fmt.Printf("topology:          %s\n", sum.Topology)
	fmt.Printf("requests:          %d\n", sum.Requests)
	fmt.Printf("success rate:      %.1f%%\n", sum.SuccessRate*100)
	fmt.Printf("mean response:     %.0f ms (p95 %d ms)\n", sum.MeanRespMS, sum.P95RespMS)
	fmt.Printf("mean hops:         %.2f (one-hop %.0f%%)\n", sum.MeanHops, sum.OneHopRate*100)
	fmt.Printf("cost per search:   %.2f KB\n", sum.MeanSearchBytes/1024)
	fmt.Printf("system load:       %.3f ± %.3f KB/node/s\n", sum.LoadMeanKBps, sum.LoadStdKBps)
	fmt.Printf("warm-up traffic:   %.1f MB\n", float64(sum.WarmupBytes)/(1<<20))
	fmt.Printf("load breakdown:\n")
	for c := 0; c < metrics.NumMsgClasses; c++ {
		if sum.Breakdown[c] > 0 {
			fmt.Printf("  %-12s %.1f%%\n", metrics.MsgClass(c).String(), sum.Breakdown[c]*100)
		}
	}
	if series {
		fmt.Println("per-second load (KB/node/s):")
		for i, v := range sum.LoadSeries {
			fmt.Printf("%d %.4f\n", i, v)
		}
	}
}
