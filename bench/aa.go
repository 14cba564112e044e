package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA measures the benchmark against itself the way the acceptance rule
// does: two sets (A, B) of n runs of every workload, run i of both sets at
// seed i, the sets alternating so a drifting host hits both alike. For
// every workload × end-to-end metric it prints both set medians, their
// difference, and each set's quartile spread as a share of its median, and
// fails if a spread (setup_s excepted) or the difference exceeds the
// metric's bound. Each run is a fresh process of this binary.
func runAA(n int, seconds float64, procs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// vals[set][workload][metric] holds one value per run.
	var vals [2]map[string]map[string][]float64
	for set := range vals {
		vals[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			vals[set][w.Name] = map[string][]float64{}
		}
	}
	for i := 1; i <= n; i++ {
		for _, w := range workloads {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.Itoa(i),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-procs", strconv.Itoa(procs))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w\n%s", w.Name, i, err, stderr.Bytes())
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var l line
				if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w.Name, i, err)
				}
				if !l.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, i, l.Failed, l.Attempted)
				}
				for name, m := range l.Metrics {
					vals[set][w.Name][name] = append(vals[set][w.Name][name], m.Value)
				}
				logf("aa: run %d/%d set %c %s done", i, n, 'A'+set, w.Name)
			}
		}
	}

	fmt.Println("| workload | metric | median A | median B | B vs A | spread A | spread B | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	var failures error
	for _, w := range workloads {
		for _, s := range endToEnd {
			a, b := vals[0][w.Name][s.Name], vals[1][w.Name][s.Name]
			ma, mb := overCycles(a).Median, overCycles(b).Median
			diff := (mb - ma) / ma
			spa, spb := quartileSpread(a), quartileSpread(b)
			ok := max(diff, -diff) <= s.Bound && (s.Name == "setup_s" || max(spa, spb) <= s.Bound)
			verdict := "ok"
			if !ok {
				verdict = "FAIL"
				failures = errors.Join(failures, fmt.Errorf("%s %s: difference %+.1f%%, spreads %.1f%% / %.1f%%, bound %.0f%%",
					w.Name, s.Name, diff*100, spa*100, spb*100, s.Bound*100))
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, s.Name, s.Unit, ma, mb, diff*100, spa*100, spb*100, s.Bound*100, verdict)
		}
	}
	return failures
}
