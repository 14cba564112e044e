// Command experiments regenerates the figures of the ASAP paper's
// evaluation section (§V).
//
// Usage:
//
//	experiments [-scale full|small|tiny] [-figure all|2|...|10|claims|seeds|loss|scenario]
//	            [-schemes csv] [-topos csv] [-matrixworkers n]
//	            [-seed n] [-seeds n] [-loss rate] [-quiet] [-scenario csv]
//	            [-series dir]
//	            [-cpuprofile path] [-memprofile path] [-mutexprofile path]
//	            [-pprof addr]
//
// A flag given a non-default value that the figure does not read (say
// -loss with -figure loss, which sweeps its own ladder) is an error.
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
//	experiments -figure seeds -seeds 5 -schemes asap-rw,asap-rw+h=2
//	                                         # an ablation with its seed spread
//	experiments -figure scenario             # every adversarial scenario (see internal/scenario)
//	experiments -scenario partition-heal     # one scenario (registry name or JSON file)
//	experiments -series out/                 # + per-second series per run (CSV+JSON)
//	experiments -cpuprofile cpu.out          # profile the run (go tool pprof cpu.out)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"asap/internal/experiments"
	"asap/internal/obs"
	"asap/internal/overlay"
)

// options is one invocation's figure, cell selection and run settings.
type options struct {
	scale, figure  string
	schemes, topos string // comma-separated subsets; empty selects the figure's default
	workers        int    // matrix workers (0 = GOMAXPROCS)
	seed           uint64 // master seed; the first seed of -figure seeds
	seeds          int    // seeds for -figure seeds
	loss           float64
	seriesDir      string
	quiet          bool
}

func main() {
	var o options
	flag.StringVar(&o.scale, "scale", "small", "experiment scale: "+strings.Join(experiments.Names(), ", "))
	flag.StringVar(&o.figure, "figure", "all", "figure to regenerate: all, 2-10, claims, seeds, loss or scenario")
	flag.StringVar(&o.schemes, "schemes", "", "comma-separated scheme subset (default: all six); -figure seeds and loss also take variants, e.g. asap-rw+h=2")
	flag.StringVar(&o.topos, "topos", "", "comma-separated topology subset (default: all three; crawled for seeds and loss)")
	flag.IntVar(&o.workers, "matrixworkers", 0, "scheme×topology matrix workers (0 = GOMAXPROCS)")
	flag.Uint64Var(&o.seed, "seed", 1, "master seed; -figure seeds sweeps -seeds seeds from it")
	flag.IntVar(&o.seeds, "seeds", 3, "seeds for -figure seeds (robustness sweep)")
	flag.Float64Var(&o.loss, "loss", 0, "message loss rate in [0,1); 0 is the paper's reliable network")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress progress output")
	flag.StringVar(&o.seriesDir, "series", "", "write each run's per-second observability series (CSV+JSON) into this directory")
	var (
		scenCSV   = flag.String("scenario", "", "comma-separated adversarial scenarios (registry names or JSON files) to replay; implies -figure scenario")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = flag.String("memprofile", "", "write a heap profile to this path on exit")
		mutexProf = flag.String("mutexprofile", "", "write a mutex profile to this path on exit")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *scenCSV != "" && o.figure == "all" {
		o.figure = "scenario"
	}
	err := unreadFlag(o.figure, flag.Visit)
	if o.loss < 0 || o.loss >= 1 {
		err = fmt.Errorf("-loss %v out of [0,1)", o.loss)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf, *mutexProf, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if o.figure == "scenario" {
		err = runScenarioSweep(*scenCSV, o)
	} else {
		err = run(o)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// figureFlags lists the flags each figure reads besides -figure, -quiet
// and the profiling flags; "" stands for every matrix figure.
var figureFlags = map[string]string{
	"2": "scale seed", "3": "scale seed",
	"seeds":    "scale seed schemes topos matrixworkers seeds loss",
	"loss":     "scale seed schemes topos matrixworkers series",
	"scenario": "scenario series",
	"":         "scale seed schemes topos matrixworkers loss series",
}

// unreadFlag names the first flag that visit reaches with a non-default
// value figure does not read, so that no value is silently dropped.
func unreadFlag(figure string, visit func(func(*flag.Flag))) error {
	reads, ok := figureFlags[figure]
	if !ok {
		reads = figureFlags[""]
	}
	var err error
	visit(func(f *flag.Flag) {
		if err == nil && f.Value.String() != f.DefValue &&
			!strings.Contains(" figure quiet cpuprofile memprofile mutexprofile pprof "+reads+" ", " "+f.Name+" ") {
			err = fmt.Errorf("-figure %s does not read -%s", figure, f.Name)
		}
	})
	return err
}

// progress prints a progress line to stderr unless the run is quiet.
func (o options) progress(format string, args ...any) {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// writeSeries writes each run's per-second series into o.seriesDir.
func (o options) writeSeries(runs []obs.RunSeries) error {
	files, err := obs.WriteDir(o.seriesDir, runs)
	if err != nil {
		return err
	}
	o.progress("wrote %d series files to %s", len(files), o.seriesDir)
	return nil
}

// selection parses -schemes and -topos; an empty flag yields nil.
func (o options) selection() ([]string, []overlay.Kind, error) {
	var schemes []string
	if o.schemes != "" {
		for _, s := range strings.Split(o.schemes, ",") {
			schemes = append(schemes, strings.TrimSpace(s))
		}
	}
	var topos []overlay.Kind
	if o.topos != "" {
		for _, name := range strings.Split(o.topos, ",") {
			k, err := overlay.KindByName(strings.TrimSpace(name))
			if err != nil {
				return nil, nil, err
			}
			topos = append(topos, k)
		}
	}
	return schemes, topos, nil
}

// paperCells rejects a scheme or topology outside the paper's matrix
// (SchemeNames × overlay.Kinds), which the figures iterate: a variant or
// superpeer would otherwise be dropped from the table without a word.
func paperCells(schemes []string, topos []overlay.Kind) error {
	for _, s := range schemes {
		if !slices.Contains(experiments.SchemeNames, s) {
			return fmt.Errorf("scheme %q is not one of the paper's (%s); -figure seeds or loss runs it",
				s, strings.Join(experiments.SchemeNames, ", "))
		}
	}
	for _, k := range topos {
		if !slices.Contains(overlay.Kinds, k) {
			return fmt.Errorf("topology %q is not one of the paper's; -figure seeds or loss runs it", k)
		}
	}
	return nil
}

// run regenerates one figure, or runs the seed or loss sweep: every path
// runs its cells through Lab.RunMatrix.
func run(o options) error {
	sc, err := experiments.ByName(o.scale)
	if err != nil {
		return err
	}
	sc.MatrixWorkers = o.workers
	sc.Seed = o.seed
	sc.LossRate = o.loss
	schemes, topos, err := o.selection()
	if err != nil {
		return err
	}
	switch o.figure {
	case "seeds":
		return runSeeds(sc, schemes, topos, o)
	case "loss":
		return runLossSweep(sc, schemes, topos, o)
	}
	if err := paperCells(schemes, topos); err != nil {
		return fmt.Errorf("-figure %s: %w", o.figure, err)
	}

	start := time.Now()
	o.progress("building %s-scale lab (network, universe, trace)…", sc.Name)
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return err
	}
	o.progress("lab ready in %v: %s", time.Since(start).Round(time.Millisecond), lab.Tr.Stats())

	var m experiments.Matrix
	if o.figure != "2" && o.figure != "3" {
		cells, err := lab.RunMatrix(schemes, topos, func(s string, k overlay.Kind) {
			o.progress("running %-12s on %-8s (%v elapsed)", s, k, time.Since(start).Round(time.Second))
		})
		if err != nil {
			return err
		}
		m = experiments.MatrixOf(cells)
		if o.seriesDir != "" {
			runs := make([]obs.RunSeries, len(cells))
			for i, c := range cells {
				runs[i] = obs.Series(c.Key(), c.Load)
			}
			if err := o.writeSeries(runs); err != nil {
				return err
			}
		}
	}

	out := func(s string) { fmt.Println(s) }
	switch o.figure {
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
		return fmt.Errorf("unknown figure %q (all, 2-10, claims, seeds, loss, scenario)", o.figure)
	}
	o.progress("done in %v", time.Since(start).Round(time.Second))
	return nil
}

// runSeeds performs the robustness sweep: every selected scheme ×
// topology (crawled by default) is replayed under o.seeds seeds from
// o.seed on (fresh universe, trace, placement and topology per seed) at
// the scale's loss rate, and the metric spreads are printed.
func runSeeds(sc experiments.Scale, schemes []string, topos []overlay.Kind, o options) error {
	if o.seeds < 1 {
		return fmt.Errorf("need ≥1 seeds")
	}
	seeds := make([]uint64, o.seeds)
	for i := range seeds {
		seeds[i] = o.seed + uint64(i)
	}
	if topos == nil {
		topos = []overlay.Kind{overlay.Crawled}
	}
	o.progress("seed sweep over seeds %v…", seeds)
	sweeps, err := experiments.RunSeeds(sc, schemes, topos, seeds)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatSeedSweeps(sweeps, sc.LossRate))
	return nil
}

// runLossSweep replays the selected schemes on one topology (crawled by
// default) under a ladder of message-loss rates, showing how each
// degrades off the paper's reliable-network assumption.
func runLossSweep(sc experiments.Scale, schemes []string, topos []overlay.Kind, o options) error {
	topo := overlay.Crawled
	switch len(topos) {
	case 0:
	case 1:
		topo = topos[0]
	default:
		return fmt.Errorf("the loss sweep takes one topology, got %d", len(topos))
	}
	rates := []float64{0, 0.01, 0.02, 0.05}
	o.progress("loss sweep on %s over rates %v…", topo, rates)
	sw, err := experiments.RunLossSweep(sc, schemes, topo, rates)
	if err != nil {
		return err
	}
	if o.seriesDir != "" {
		runs := make([]obs.RunSeries, len(sw.Points))
		for i, p := range sw.Points {
			runs[i] = obs.Series(p.Key(), p.Load)
		}
		if err := o.writeSeries(runs); err != nil {
			return err
		}
	}
	fmt.Println(experiments.FormatLossSweep(sw))
	return nil
}
