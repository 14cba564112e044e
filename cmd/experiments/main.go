// Command experiments regenerates the figures of the ASAP paper's
// evaluation section (§V).
//
// Usage:
//
//	experiments [-scale full|small|tiny] [-figure all|2|3|...|10|claims]
//	            [-schemes csv] [-topos csv] [-matrixworkers n]
//	            [-seed n] [-loss rate] [-quiet] [-benchjson path]
//	            [-scalerun preset] [-scenario csv] [-series dir]
//	            [-cpuprofile path] [-memprofile path] [-mutexprofile path]
//	            [-pprof addr]
//
// Every run is a sequential replay, a pure function of (preset, seed).
// More cores are used across matrix cells (-matrixworkers), and the
// matrix is byte-identical at every worker count.
//
// Examples:
//
//	experiments -scale small -figure all     # every figure, 1/10 scale
//	experiments -scale full -figure 4        # paper-scale Fig. 4 (slow)
//	experiments -scale small -figure claims  # headline-claim checks
//	experiments -scale small -loss 0.02      # the matrix on a 2%-lossy network
//	experiments -scale tiny -figure loss     # loss sweep: 0/1/2/5% message loss
//	experiments -figure scenario             # every adversarial scenario (see internal/scenario)
//	experiments -scenario partition-heal     # one scenario (registry name or JSON file)
//	experiments -benchjson BENCH_matrix.json # perf record: baseline vs parallel matrix
//	experiments -scalerun full               # record the paper-scale matrix wall+heap
//	experiments -series out/                 # + per-second series per run (CSV+JSON)
//	experiments -cpuprofile cpu.out          # profile the run (go tool pprof cpu.out)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"asap/internal/experiments"
	"asap/internal/obs"
	"asap/internal/overlay"
)

func main() {
	var (
		scaleName = flag.String("scale", "small", "experiment scale: "+strings.Join(experiments.Names(), ", "))
		figure    = flag.String("figure", "all", "figure to regenerate: all, 2-10, or claims")
		schemes   = flag.String("schemes", "", "comma-separated scheme subset (default: all six)")
		topos     = flag.String("topos", "", "comma-separated topology subset (default: all three)")
		matrixW   = flag.Int("matrixworkers", 0, "scheme×topology matrix workers (0 = GOMAXPROCS)")
		seed      = flag.Uint64("seed", 1, "master seed")
		seedCount = flag.Int("seeds", 3, "seeds for -figure seeds (robustness sweep)")
		loss      = flag.Float64("loss", 0, "message loss rate in [0,1); 0 is the paper's reliable network")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		benchJSON = flag.String("benchjson", "", "write a matrix perf record (baseline vs parallel) to this path and exit")
		scaleRun  = flag.String("scalerun", "", "replay this preset's whole matrix end to end and merge its wall-time/peak-heap record into the scale_runs block of -benchjson's path (default BENCH_matrix.json)")
		scenCSV   = flag.String("scenario", "", "comma-separated adversarial scenarios (registry names or JSON files) to replay; implies -figure scenario")
		seriesDir = flag.String("series", "", "write each run's per-second observability series (CSV+JSON) into this directory")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = flag.String("memprofile", "", "write a heap profile to this path on exit")
		mutexProf = flag.String("mutexprofile", "", "write a mutex profile to this path on exit")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *loss < 0 || *loss >= 1 {
		fmt.Fprintf(os.Stderr, "experiments: -loss %v out of [0,1)\n", *loss)
		os.Exit(1)
	}
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf, *mutexProf, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	switch {
	case *scaleRun != "":
		path := *benchJSON
		if path == "" {
			path = "BENCH_matrix.json"
		}
		err = runScaleRun(*scaleRun, *seed, *matrixW, path, *quiet)
	case *figure == "scenario" || *scenCSV != "":
		err = runScenarioSweep(*scenCSV, *seriesDir, *benchJSON, *quiet)
	case *benchJSON != "":
		err = runBenchJSON(*scaleName, *seed, *matrixW, *benchJSON, *quiet)
	case *figure == "seeds":
		err = runSeeds(*scaleName, *schemes, *topos, *seedCount, *quiet)
	case *figure == "loss":
		err = runLossSweep(*scaleName, *schemes, *topos, *seed, *seriesDir, *quiet)
	default:
		err = run(*scaleName, *figure, *schemes, *topos, *matrixW, *seed, *loss, *seriesDir, *quiet)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scaleName, figure, schemeCSV, topoCSV string, matrixWorkers int, seed uint64, loss float64, seriesDir string, quiet bool) error {
	sc, err := experiments.ByName(scaleName)
	if err != nil {
		return err
	}
	sc.MatrixWorkers = matrixWorkers
	sc.Seed = seed
	sc.LossRate = loss

	progress := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	progress("building %s-scale lab (network, universe, trace)…", sc.Name)
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return err
	}
	st := lab.Tr.Stats()
	progress("lab ready in %v: %s", time.Since(start).Round(time.Millisecond), st)

	var schemeList []string
	if schemeCSV != "" {
		schemeList = strings.Split(schemeCSV, ",")
	}
	var topoList []overlay.Kind
	if topoCSV != "" {
		for _, name := range strings.Split(topoCSV, ",") {
			k, err := kindByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			topoList = append(topoList, k)
		}
	}

	needMatrix := figure != "2" && figure != "3"
	var m experiments.Matrix
	var series *obs.Collector
	if needMatrix {
		if seriesDir != "" {
			series = obs.NewCollector()
		}
		m, err = lab.RunMatrixOpt(schemeList, topoList, func(s string, k overlay.Kind) {
			progress("running %-12s on %-8s (%v elapsed)", s, k, time.Since(start).Round(time.Second))
		}, experiments.MatrixOptions{Workers: sc.MatrixWorkers, Series: series})
		if err != nil {
			return err
		}
		if series != nil {
			files, err := obs.WriteDir(seriesDir, series.Runs())
			if err != nil {
				return err
			}
			progress("wrote %d series files to %s", len(files), seriesDir)
		}
	}

	out := func(s string) { fmt.Println(s) }
	switch figure {
	case "all":
		out(experiments.FormatFig2(lab))
		out(experiments.FormatFig3(lab))
		out(experiments.FormatFig4(m))
		out(experiments.FormatFig5(m))
		out(experiments.FormatFig6(m))
		if per, ok := m["asap-rw"]; ok {
			if sum, ok := per[overlay.Crawled]; ok {
				out(experiments.FormatFig7(sum))
			}
		}
		out(experiments.FormatFig8(m))
		out(experiments.FormatFig9(m))
		out(experiments.FormatFig10(m, 100))
		out(experiments.FormatClaims(experiments.CheckClaims(m)))
	case "2":
		out(experiments.FormatFig2(lab))
	case "3":
		out(experiments.FormatFig3(lab))
	case "4":
		out(experiments.FormatFig4(m))
	case "5":
		out(experiments.FormatFig5(m))
	case "6":
		out(experiments.FormatFig6(m))
	case "7":
		per, ok := m["asap-rw"]
		if !ok {
			return fmt.Errorf("figure 7 needs an asap-rw run")
		}
		sum, ok := per[overlay.Crawled]
		if !ok {
			return fmt.Errorf("figure 7 needs the crawled topology")
		}
		out(experiments.FormatFig7(sum))
	case "8":
		out(experiments.FormatFig8(m))
	case "9":
		out(experiments.FormatFig9(m))
	case "10":
		out(experiments.FormatFig10(m, 100))
	case "claims":
		out(experiments.FormatClaims(experiments.CheckClaims(m)))
	default:
		return fmt.Errorf("unknown figure %q (all, 2-10, claims, seeds, loss)", figure)
	}
	progress("done in %v", time.Since(start).Round(time.Second))
	return nil
}

// runSeeds performs the robustness sweep: every selected scheme ×
// topology is replayed under several seeds (fresh universe, trace,
// placement and topology each time) and the metric spreads are printed.
func runSeeds(scaleName, schemeCSV, topoCSV string, nSeeds int, quiet bool) error {
	sc, err := experiments.ByName(scaleName)
	if err != nil {
		return err
	}
	if nSeeds < 1 {
		return fmt.Errorf("need ≥1 seeds")
	}
	seeds := make([]uint64, nSeeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	schemeList := experiments.SchemeNames
	if schemeCSV != "" {
		schemeList = strings.Split(schemeCSV, ",")
	}
	topoList := []overlay.Kind{overlay.Crawled}
	if topoCSV != "" {
		topoList = topoList[:0]
		for _, name := range strings.Split(topoCSV, ",") {
			k, err := kindByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			topoList = append(topoList, k)
		}
	}
	var sweeps []experiments.SeedSweep
	for _, s := range schemeList {
		for _, k := range topoList {
			if !quiet {
				fmt.Fprintf(os.Stderr, "sweeping %s on %s over %d seeds…\n", s, k, nSeeds)
			}
			sw, err := experiments.RunSeeds(sc, strings.TrimSpace(s), k, seeds)
			if err != nil {
				return err
			}
			sweeps = append(sweeps, sw)
		}
	}
	fmt.Println(experiments.FormatSeedSweeps(sweeps))
	return nil
}

// runLossSweep replays the selected schemes on one topology under a
// ladder of message-loss rates, showing how each degrades off the paper's
// reliable-network assumption.
func runLossSweep(scaleName, schemeCSV, topoCSV string, seed uint64, seriesDir string, quiet bool) error {
	sc, err := experiments.ByName(scaleName)
	if err != nil {
		return err
	}
	sc.Seed = seed
	var schemeList []string
	if schemeCSV != "" {
		for _, s := range strings.Split(schemeCSV, ",") {
			schemeList = append(schemeList, strings.TrimSpace(s))
		}
	}
	topo := overlay.Crawled
	if topoCSV != "" {
		if topo, err = kindByName(strings.TrimSpace(topoCSV)); err != nil {
			return err
		}
	}
	rates := []float64{0, 0.01, 0.02, 0.05}
	if !quiet {
		fmt.Fprintf(os.Stderr, "loss sweep on %s over rates %v…\n", topo, rates)
	}
	var series *obs.Collector
	if seriesDir != "" {
		series = obs.NewCollector()
	}
	sw, err := experiments.RunLossSweep(sc, schemeList, topo, rates, series)
	if err != nil {
		return err
	}
	if series != nil {
		files, err := obs.WriteDir(seriesDir, series.Runs())
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %d series files to %s\n", len(files), seriesDir)
		}
	}
	fmt.Println(experiments.FormatLossSweep(sw))
	return nil
}

func kindByName(name string) (overlay.Kind, error) {
	for _, k := range overlay.Kinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown topology %q", name)
}
