// Command asapnode is the ASAP serving daemon (internal/serve). It warms
// a node by replaying the preset's trace to completion, then answers
// concurrent searches over HTTP (-http: POST /search, GET /metrics, GET
// /healthz) and optionally the length-prefixed binary protocol (-bin),
// with token-bucket admission control, per-connection deadlines and a
// graceful drain on SIGINT/SIGTERM. It prints each bound address
// ("serving http <addr>", "serving bin <addr>") so launchers can learn
// kernel-assigned ports.
//
// Usage:
//
//	asapnode -scale tiny -http 127.0.0.1:0 -bin 127.0.0.1:0 -rate 2000
//	asapnode -scale small -scheme asap-fld -topo crawled -seed 7 -http 127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asap/internal/cliutil"
	"asap/internal/experiments"
	"asap/internal/overlay"
	"asap/internal/serve"
	"asap/internal/transport"
)

func main() {
	scale := flag.String("scale", "tiny", "experiment scale preset to warm")
	scheme := flag.String("scheme", "asap-rw", "scheme to serve")
	topo := flag.String("topo", "random", "overlay topology: random, powerlaw, crawled, or superpeer (ASAP runs footnote 3's super-peer mode)")
	seed := flag.Uint64("seed", 0, "run seed (only if given explicitly; 0 is a valid seed)")
	httpAddr := flag.String("http", "127.0.0.1:0", "HTTP listen address (search, metrics, health)")
	binAddr := flag.String("bin", "", "binary endpoint listen address (empty: off)")
	rate := flag.Float64("rate", 0, "admission rate in queries/sec (0 = unlimited)")
	burst := flag.Float64("burst", 0, "admission burst (0: one second at -rate)")
	workers := flag.Int("workers", 0, "concurrent in-flight searches (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded wait queue beyond the in-flight cap")
	flag.Parse()

	cfg := serve.Config{Workers: *workers, MaxQueue: *queue, Rate: *rate, Burst: *burst}
	if err := run(*scale, *scheme, *topo, *seed, *httpAddr, *binAddr, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "asapnode: %v\n", err)
		os.Exit(1)
	}
}

// run warms a node from the preset and serves it until SIGINT or
// SIGTERM, then drains in-flight and queued queries before exiting.
func run(scale, scheme, topo string, seed uint64, httpAddr, binAddr string, cfg serve.Config) error {
	sc, err := experiments.ByName(scale)
	if err != nil {
		return err
	}
	// -seed 0 must override too, so presence — not value — decides.
	if cliutil.WasSet("seed") {
		sc.Seed = seed
	}
	kind, err := overlay.KindByName(topo)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "asapnode: warming %s/%s at %s scale…\n", scheme, topo, scale)
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := serve.Warm(lab, scheme, kind, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "asapnode: warm in %v\n", time.Since(start).Round(time.Millisecond))

	hl, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	fmt.Printf("serving http %s\n", hl.Addr())
	hs := serve.NewHTTP(n, nil)

	var bs *serve.BinaryServer
	if binAddr != "" {
		bln, err := transport.TCP{}.Listen(binAddr)
		if err != nil {
			return err
		}
		fmt.Printf("serving bin %s\n", bln.Addr())
		bs = serve.NewBinary(n, bln)
		go bs.Serve()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(hl) }()
	select {
	case err := <-errCh:
		return err
	case <-stop:
	}
	fmt.Fprintln(os.Stderr, "asapnode: draining…")
	if bs != nil {
		bs.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}
