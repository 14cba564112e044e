package obs

import (
	"errors"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// StartProfiles wires the standard profiling hooks for a CLI run: a CPU
// profile streamed to cpuPath, heap and mutex profiles written to
// memPath/mutexPath when the returned stop function runs, and a
// net/http/pprof endpoint on pprofAddr. Every argument is optional (empty
// disables that hook); with all four empty the call is a no-op. The stop
// function is always non-nil and safe to call once.
//
// Every requested file is created here, parent directories included, so a
// path that cannot be written fails the run before it starts instead of
// after it has finished.
func StartProfiles(cpuPath, memPath, mutexPath, pprofAddr string) (stop func() error, err error) {
	names := [3]string{"cpu", "mem", "mutex"}
	var files [3]*os.File
	fail := func(i int, err error) (func() error, error) {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		return nil, fmt.Errorf("obs: %s profile: %w", names[i], err)
	}
	for i, path := range [3]string{cpuPath, memPath, mutexPath} {
		if path == "" {
			continue
		}
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			files[i], err = os.Create(path)
		}
		if err != nil {
			return fail(i, err)
		}
	}
	if files[0] != nil {
		if err := pprof.StartCPUProfile(files[0]); err != nil {
			return fail(0, err)
		}
	}
	if files[2] != nil {
		runtime.SetMutexProfileFraction(5)
	}
	if pprofAddr != "" {
		// The endpoint lives for the process; ListenAndServe only returns
		// on error, which a batch CLI reports but need not die on.
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "obs: pprof endpoint:", err)
			}
		}()
	}
	return func() error {
		var errs []error
		for i, f := range files {
			if f == nil {
				continue
			}
			var err error
			switch i {
			case 0:
				pprof.StopCPUProfile()
			case 1:
				runtime.GC() // materialise final heap statistics
				err = pprof.WriteHeapProfile(f)
			case 2:
				err = pprof.Lookup("mutex").WriteTo(f, 0)
			}
			if err = errors.Join(err, f.Close()); err != nil {
				errs = append(errs, fmt.Errorf("obs: %s profile: %w", names[i], err))
			}
		}
		return errors.Join(errs...)
	}, nil
}
