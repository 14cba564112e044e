// Command asapload is the open-loop load generator for the always-on
// serving plane (internal/serve). It precomputes a Poisson arrival
// schedule with a Zipf-popular query mix over the preset trace's own
// query catalog — the trace generator's λ=8/s generalised to arbitrary
// rates — then fires it at a warm node and reports client-side
// throughput, a wall-clock latency histogram, and shed counts.
//
// Three modes share one schedule and one report:
//
//   - inproc (default): warm a node in this process and call
//     Node.Search directly — measures the serving core with no codec or
//     kernel in the way.
//   - http: POST /search against an already-running `asapnode`.
//   - bin: the length-prefixed binary protocol against the same daemon,
//     one persistent connection per client worker.
//
// The schedule is a pure function of -loadseed, -rate, -n, -zipf and the
// catalog: worker count changes execution interleaving only, never
// arrivals or mix (see TestScheduleDeterminism).
//
// With -smoke, the process exits non-zero unless the run served every
// query (zero sheds, zero failures) with p99 under -p99max. Every client
// exchange, HTTP or binary, gives up after exchangeTimeout; an expiry
// counts as a failed query, so a stalled daemon cannot hang the run.
//
// Usage:
//
//	asapload -rate 2000 -n 10000
//	asapload -mode http -addr 127.0.0.1:8080 -rate 500 -n 2000
//	asapload -rate 200 -n 400 -smoke -p99max 250ms
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"asap/internal/cliutil"
	"asap/internal/experiments"
	"asap/internal/overlay"
	"asap/internal/serve"
	"asap/internal/transport"
)

// exchangeTimeout bounds one client exchange, request sent to reply read,
// in the http and bin modes; it matches the binary endpoint's reply write
// deadline. Tests shorten it.
var exchangeTimeout = 10 * time.Second

func main() {
	mode := flag.String("mode", "inproc", "inproc|http|bin")
	addr := flag.String("addr", "", "target address for http/bin modes")
	scalef := flag.String("scale", "tiny", "experiment scale preset (inproc warm + catalog)")
	scheme := flag.String("scheme", "asap-rw", "scheme to warm (inproc)")
	topo := flag.String("topo", "random", "overlay topology (inproc): random, powerlaw, crawled, or superpeer (ASAP runs footnote 3's super-peer mode)")
	seed := flag.Uint64("seed", 0, "lab seed (only if given explicitly; preset default otherwise)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate, queries/sec (default: the preset trace's λ)")
	count := flag.Int("n", 4000, "total queries to issue")
	loadSeed := flag.Uint64("loadseed", 1, "load schedule seed (arrivals + query mix)")
	zipf := flag.Float64("zipf", 1.0, "Zipf popularity skew over the query catalog (0 = uniform)")
	clients := flag.Int("clients", 4, "client worker goroutines (never changes the schedule)")
	workers := flag.Int("workers", 0, "inproc: serving worker slots (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "inproc: bounded wait queue beyond the in-flight cap")
	admit := flag.Float64("admit", 0, "inproc: admission rate, queries/sec (0 = unlimited)")
	burst := flag.Float64("burst", 0, "inproc: admission burst (0: one second at -admit)")
	smoke := flag.Bool("smoke", false, "gate: fail unless zero sheds/failures and p99 ≤ -p99max")
	p99max := flag.Duration("p99max", 250*time.Millisecond, "smoke-mode p99 bound")
	minQPM := flag.Float64("minqpm", 0, "gate: fail unless served queries/min reaches this")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()

	// -rate 0 is not a legal open-loop rate, so the preset λ default folds
	// in through the shared sentinel plumbing rather than a zero check —
	// keeping asapload's presence-detection on the one code path every
	// command uses (cliutil), not a drifting local copy.
	rateOverride := cliutil.Float64Override("rate", *rate)

	if err := run(*mode, *addr, *scalef, *scheme, *topo, *seed, rateOverride,
		*count, *loadSeed, *zipf, *clients,
		serve.Config{Workers: *workers, MaxQueue: *queue, Rate: *admit, Burst: *burst},
		*smoke, *p99max, *minQPM, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "asapload: %v\n", err)
		os.Exit(1)
	}
}

func run(mode, addr, scaleName, schemeName, topoName string, seed uint64, rateOverride float64,
	count int, loadSeed uint64, zipf float64, clients int, cfg serve.Config,
	smoke bool, p99max time.Duration, minQPM float64, quiet bool) error {

	progress := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	sc, err := experiments.ByName(scaleName)
	if err != nil {
		return err
	}
	if cliutil.WasSet("seed") {
		sc.Seed = seed
	}
	kind, err := overlay.KindByName(topoName)
	if err != nil {
		return err
	}
	rate := sc.Trace.Lambda
	cliutil.ApplyFloat64(rateOverride, &rate)
	switch {
	case clients < 1:
		return fmt.Errorf("-clients %d: need at least one client", clients)
	case count < 1:
		return fmt.Errorf("-n %d: need at least one query", count)
	case !(rate > 0):
		return fmt.Errorf("-rate %v: need a positive arrival rate", rate)
	}

	// Every mode needs the lab: inproc warms from it, the client modes
	// rebuild the same trace the daemon warmed from to get the catalog.
	progress("asapload: building %s-scale lab…", scaleName)
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return err
	}

	var catalog []serve.CatalogEntry
	var do func(worker int, entry int32) error
	switch mode {
	case "inproc":
		progress("asapload: warming %s/%s…", schemeName, topoName)
		warmStart := time.Now()
		n, err := serve.Warm(lab, schemeName, kind, cfg)
		if err != nil {
			return err
		}
		progress("asapload: warm in %d ms", time.Since(warmStart).Milliseconds())
		catalog = serve.BuildCatalog(lab.Tr, func(id overlay.NodeID) bool { return n.System().G.Alive(id) })
		dsts := make([][]overlay.NodeID, clients)
		do = func(w int, e int32) error {
			q := &catalog[e]
			_, dst, _, err := n.Search(q.From, q.Terms, dsts[w][:0])
			dsts[w] = dst
			return err
		}
	case "http":
		if addr == "" {
			return errors.New("http mode needs -addr")
		}
		catalog = serve.BuildCatalog(lab.Tr, nil)
		do = httpClient(addr, catalog, clients)
	case "bin":
		if addr == "" {
			return errors.New("bin mode needs -addr")
		}
		catalog = serve.BuildCatalog(lab.Tr, nil)
		do, err = binClient(addr, catalog, clients)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q (inproc|http|bin)", mode)
	}
	if len(catalog) == 0 {
		return errors.New("empty query catalog")
	}

	sched := serve.BuildSchedule(len(catalog), serve.LoadConfig{
		Rate: rate, Count: count, Seed: loadSeed, ZipfS: zipf,
	})
	progress("asapload: firing %d queries at %.0f/s over %d clients (catalog %d)…",
		len(sched), rate, clients, len(catalog))
	res := serve.RunLoad(sched, clients, do)

	qps := res.QPS()
	p50, p99 := res.Wall.Quantile(0.50), res.Wall.Quantile(0.99)
	served, shed, failed := res.Served.Load(), res.Shed(), res.Failed.Load()
	var shedFrac float64
	if total := served + shed; total > 0 {
		shedFrac = float64(shed) / float64(total)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Printf("served %d/%d in %v: %.0f qps (%.0f q/min), p50 %.3f ms, p99 %.3f ms, shed %d (%.2f%%), failed %d\n",
		served, len(sched), res.Elapsed.Round(time.Millisecond),
		qps, qps*60, ms(p50), ms(p99), shed, shedFrac*100, failed)

	if smoke {
		switch {
		case failed > 0:
			return fmt.Errorf("smoke: %d failed queries", failed)
		case shed > 0:
			return fmt.Errorf("smoke: %d shed queries at a rate the node must sustain", shed)
		case served != int64(len(sched)):
			return fmt.Errorf("smoke: served %d of %d queries", served, len(sched))
		case p99 > p99max:
			return fmt.Errorf("smoke: p99 %v exceeds bound %v", p99, p99max)
		}
	}
	if minQPM > 0 && qps*60 < minQPM {
		return fmt.Errorf("gate: %.0f queries/min below the %.0f floor", qps*60, minQPM)
	}
	return nil
}

// httpClient returns a do callback POSTing /search, one Transport
// connection pool shared across workers (http.Transport keeps per-host
// connections alive, so each worker reuses its own).
func httpClient(addr string, catalog []serve.CatalogEntry, clients int) func(int, int32) error {
	url := "http://" + addr + "/search"
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: exchangeTimeout}
	return func(w int, e int32) error {
		q := &catalog[e]
		req := serve.SearchRequest{From: uint32(q.From), Terms: make([]uint32, len(q.Terms))}
		for i, t := range q.Terms {
			req.Terms[i] = uint32(t)
		}
		body, _ := json.Marshal(req)
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var sr serve.SearchResponse
		switch resp.StatusCode {
		case http.StatusOK:
			return json.NewDecoder(resp.Body).Decode(&sr)
		case http.StatusTooManyRequests:
			return serve.ErrThrottled
		case http.StatusServiceUnavailable:
			return serve.ErrDraining
		default:
			return fmt.Errorf("http %d", resp.StatusCode)
		}
	}
}

// binClient dials one persistent binary-protocol connection per worker
// and returns a do callback running the MServeQuery exchange on it. An
// exchange that fails at the transport (an expired deadline among them)
// leaves the stream's framing unknown, so it closes the connection and
// every later exchange of that worker fails at once.
func binClient(addr string, catalog []serve.CatalogEntry, clients int) (func(int, int32) error, error) {
	conns := make([]*transport.Conn, clients)
	bufs := make([][]byte, clients)
	tp := transport.TCP{}
	for i := range conns {
		c, err := tp.Dial(addr)
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	return func(w int, e int32) error {
		q := &catalog[e]
		sq := transport.ServeQuery{From: uint32(q.From), Terms: make([]uint32, len(q.Terms))}
		for i, t := range q.Terms {
			sq.Terms[i] = uint32(t)
		}
		bufs[w] = sq.Encode(bufs[w][:0])
		c := conns[w]
		if c == nil {
			return errors.New("connection closed by an earlier failed exchange")
		}
		t, p, err := exchange(c, bufs[w])
		if err != nil {
			c.Close()
			conns[w] = nil
			return err
		}
		switch t {
		case transport.MServeOK:
			_, err := transport.DecodeServeReply(p)
			return err
		case transport.MServeErr:
			if len(p) != 1 {
				return errors.New("malformed MServeErr")
			}
			switch p[0] {
			case transport.ServeErrThrottled:
				return serve.ErrThrottled
			case transport.ServeErrOverloaded:
				return serve.ErrOverloaded
			case transport.ServeErrDraining:
				return serve.ErrDraining
			default:
				return errors.New("server rejected query")
			}
		default:
			return fmt.Errorf("unexpected frame type %d", t)
		}
	}, nil
}

// exchange sends one MServeQuery frame on c and reads its reply, both
// within exchangeTimeout.
func exchange(c *transport.Conn, query []byte) (transport.MsgType, []byte, error) {
	deadline := time.Now().Add(exchangeTimeout)
	if err := c.SetWriteDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if err := c.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if err := c.WriteFrame(transport.MServeQuery, query); err != nil {
		return 0, nil, err
	}
	return c.ReadFrame()
}
