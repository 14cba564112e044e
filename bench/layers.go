package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/serve"
	"asap/internal/trace"
	"asap/internal/transport"
)

// The per-layer measurements of the traced run. Everything here times
// calls into a layer's public functions from outside; nothing in the repo
// is instrumented.

// runtimeSnap is the Go runtime's and the process's counters at one
// instant.
type runtimeSnap struct {
	ms   runtime.MemStats
	cpuS float64
}

func snapRuntime() runtimeSnap {
	var s runtimeSnap
	runtime.ReadMemStats(&s.ms)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s
}

// since returns the runtime.* layer metrics accumulated since the
// snapshot, over a phase of ops operations.
func (a runtimeSnap) since(ops int) map[string]float64 {
	b := snapRuntime()
	return map[string]float64{
		"runtime.cpu_s":         b.cpuS - a.cpuS,
		"runtime.gc_cycles":     float64(b.ms.NumGC - a.ms.NumGC),
		"runtime.gc_pause_ms":   float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs) / 1e6,
		"runtime.alloc_mb":      float64(b.ms.TotalAlloc-a.ms.TotalAlloc) / (1 << 20),
		"runtime.allocs_per_op": float64(b.ms.Mallocs-a.ms.Mallocs) / float64(ops),
	}
}

// generatorLayers times the lab's three generators one by one, with the
// seeds NewLab gives them.
func (e *env) generatorLayers(m map[string]float64) error {
	sc := e.scale
	sc.Net.Seed, sc.Content.Seed, sc.Trace.Seed = sc.Seed, sc.Seed, sc.Seed
	t := time.Now()
	netmodel.Generate(sc.Net)
	m["netmodel.generate_s"] = time.Since(t).Seconds()
	t = time.Now()
	u := content.Generate(sc.Content)
	m["content.generate_s"] = time.Since(t).Seconds()
	t = time.Now()
	_, err := trace.Build(u, sc.Trace)
	m["trace.build_s"] = time.Since(t).Seconds()
	return err
}

// perCall runs fn n times and returns the mean ns per call.
func perCall(n int, fn func()) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t)) / float64(n)
}

// kernelLayers times the short loops over single kernels — Bloom slice
// match, scalar probe and patch diff, the serving frame codecs, a frame
// round trip over the in-memory pipe, and an uncontended gate section —
// on inputs generated from the seed.
func (e *env) kernelLayers(m map[string]float64) error {
	rng := rand.New(rand.NewPCG(e.seed, 0x62656e63686c6179))
	n := 1_000_000
	if e.quick {
		n = 20_000
	}

	// 256 ads of 60 keywords each in the default geometry: four 64-slot
	// blocks, probed with two-term queries of which some match.
	const ads, perAd = 256, 60
	sl := bloom.NewSliced(bloom.DefaultBits, bloom.DefaultHashes)
	filters := make([]*bloom.Filter, ads)
	keys := make([]uint64, 0, ads*perAd)
	for i := range filters {
		f := bloom.NewDefault()
		for j := 0; j < perAd; j++ {
			k := rng.Uint64N(1 << 20)
			f.AddKey(k)
			keys = append(keys, k)
		}
		filters[i] = f
		sl.Add(f)
	}
	const queries = 1024
	probes := make([][]bloom.Probe, queries)
	positions := make([][]uint32, queries)
	for i := range probes {
		k := i * perAd / 4 % len(keys) // both terms from one ad on every other query
		second := keys[(k+1)%len(keys)]
		if i%2 == 1 {
			second = rng.Uint64N(1 << 20)
		}
		probes[i] = bloom.PrecomputeKeys([]uint64{keys[k], second})
		positions[i] = sl.AppendPositions(nil, probes[i])
	}
	i := 0
	m["bloom.matchblock_ns"] = perCall(n, func() {
		sink += sl.MatchBlock(i&3, positions[i%queries])
		i++
	})
	i = 0
	m["bloom.contains_probes_ns"] = perCall(n, func() {
		if filters[i%ads].ContainsAllProbes(probes[i%queries]) {
			sink++
		}
		i++
	})
	// One document's worth of keywords added to an ad: the diff the
	// publish path encodes into a patch ad on every content change.
	next := filters[0].Clone()
	for j := 0; j < 4; j++ {
		next.AddKey(rng.Uint64N(1 << 20))
	}
	var patch bloom.Patch
	m["bloom.append_diff_ns"] = perCall(n/10, func() {
		filters[0].AppendDiff(next, &patch)
		sink += uint64(patch.Len())
	})

	sq := transport.ServeQuery{From: 1234, Terms: []uint32{70001, 70002}}
	var buf []byte
	var cerr error
	m["transport.query_codec_ns"] = perCall(n/4, func() {
		buf = sq.Encode(buf[:0])
		q, err := transport.DecodeServeQuery(buf)
		if err != nil {
			cerr = err
		}
		sink += uint64(q.From)
	})
	sr := transport.ServeReply{Epoch: 1766, Sources: []uint32{17, 290, 1043}}
	m["transport.reply_codec_ns"] = perCall(n/4, func() {
		buf = sr.Encode(buf[:0])
		r, err := transport.DecodeServeReply(buf)
		if err != nil {
			cerr = err
		}
		sink += r.Epoch
	})
	ad := transport.AdMsg{Src: 77, Version: 3, Topics: 0x11, Kind: 1, Full: filters[0].EncodeWire(), Patch: patch.Encode()}
	m["transport.ad_codec_ns"] = perCall(n/10, func() {
		buf = ad.Encode(buf[:0])
		a, err := transport.DecodeAd(buf)
		if err != nil {
			cerr = err
		}
		sink += uint64(a.Src)
	})
	if cerr != nil {
		return fmt.Errorf("codec round trip: %w", cerr)
	}

	rtt, err := frameRTT(n/50, sq.Encode(nil))
	if err != nil {
		return err
	}
	m["transport.frame_rtt_us"] = rtt / 1e3

	g := serve.NewGate(e.procs)
	m["serve.gate_ns"] = perCall(n, func() {
		sink += g.Enter(0)
		g.Exit(0)
	})
	return nil
}

// frameRTT echoes n frames over a transport.Mem pipe and returns the mean
// round trip in ns: the framing and buffering cost with no socket under it.
func frameRTT(n int, payload []byte) (float64, error) {
	ln, err := transport.Mem{}.Listen("mem:0")
	if err != nil {
		return 0, err
	}
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		for {
			t, p, err := c.ReadFrame()
			if err != nil {
				echoed <- nil // the client hung up
				return
			}
			if err := c.WriteFrame(t, p); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := transport.Mem{}.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		return 0, err
	}
	var rerr error
	ns := perCall(n, func() {
		if err := c.WriteFrame(transport.MServeQuery, payload); err != nil {
			rerr = err
		}
		if _, _, err := c.ReadFrame(); err != nil {
			rerr = err
		}
	})
	c.Close()
	ln.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return ns, rerr
}

// probe measures the quiescent node's read path layer by layer: SearchRO
// called directly, Node.Search around it, and — for serve-bin — the HTTP
// endpoint beside the binary one. It runs last in the cycle because
// shutting the HTTP server down drains the node.
func (e *env) probe(bin bool) func(*servedNode, *cycle) error {
	return func(s *servedNode, c *cycle) error {
		n := len(s.mix)
		if bin {
			n = min(n, 10*e.quiescentChecks())
		}
		mix := s.mix[:n]
		sc := core.NewServeScratch()
		var dst []overlay.NodeID
		now := s.node.Now()
		i := 0
		ro := perCall(n, func() {
			q := &s.catalog[mix[i]]
			_, dst = s.sch.SearchRO(q.from, q.terms, now, sc, dst[:0])
			i++
		})
		lat := make([]int32, 0, n)
		var serr error
		t0 := time.Now()
		for _, qi := range mix {
			q := &s.catalog[qi]
			t := time.Now()
			_, out, _, err := s.node.Search(q.from, q.terms, dst[:0])
			lat = append(lat, ns32(time.Since(t)))
			dst = out
			if err != nil {
				serr = err
			}
		}
		inproc := float64(time.Since(t0)) / float64(n)
		if serr != nil {
			return fmt.Errorf("quiescent Node.Search: %w", serr)
		}
		slices.Sort(lat)
		c.layers["core.searchro_ns"] = ro
		c.layers["serve.search_overhead_ns"] = inproc - ro - e.timerNS
		if !bin {
			return nil
		}
		c.layers["serve.bin_overhead_us"] = c.P50US - float64(percentile(lat, 50, 100))/1e3
		p50, err := httpP50(s, mix)
		c.layers["serve.http_p50_us"] = p50
		return err
	}
}

// httpP50 serves the node over HTTP on loopback and returns the median
// latency in µs of one POST /search per mix entry on a kept-alive
// connection.
func httpP50(s *servedNode, mix []int32) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := serve.NewHTTP(s.node, nil)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	url := "http://" + l.Addr().String() + "/search"

	lat := make([]int32, 0, len(mix))
	var body bytes.Buffer
	var req serve.SearchRequest
	var rerr error
	for _, qi := range mix {
		q := &s.catalog[qi]
		req.From, req.Terms = uint32(q.from), req.Terms[:0]
		for _, t := range q.terms {
			req.Terms = append(req.Terms, uint32(t))
		}
		t := time.Now()
		body.Reset()
		json.NewEncoder(&body).Encode(&req) // encoding a struct of integers cannot fail
		resp, err := client.Post(url, "application/json", &body)
		if err != nil {
			rerr = err
			break
		}
		var sr serve.SearchResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			rerr = fmt.Errorf("POST /search: status %d: %v", resp.StatusCode, err)
			break
		}
		lat = append(lat, ns32(time.Since(t)))
	}
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && rerr == nil {
		rerr = err
	}
	if err := <-served; err != nil && rerr == nil {
		rerr = err
	}
	slices.Sort(lat)
	return float64(percentile(lat, 50, 100)) / 1e3, rerr
}

// spanLayers maps the traced cycle's span totals onto the per-layer
// metric names. Replay cycles see the scheme through the decorator's
// spans; serve cycles see it through the node's apply and read spans.
func spanLayers(lt map[string]*layerTime, m map[string]float64) {
	of := func(name string) layerTime {
		if t := lt[name]; t != nil {
			return *t
		}
		return layerTime{}
	}
	m["experiments.lab_build_s"] = of("experiments.new_lab").TotalS
	m["sim.new_system_s"] = of("sim.new_system").TotalS
	m["core.attach_s"] = of("core.attach").TotalS
	m["core.search_s"] = of("core.search").TotalS
	m["core.search_calls"] = float64(of("core.search").Calls)
	m["search.search_s"] = of("search.search").TotalS
	m["search.search_calls"] = float64(of("search.search").Calls)
	m["sim.state_self_s"] = of("sim.next_batch").SelfS
	m["sim.finish_s"] = of("sim.finish").SelfS
	for _, kind := range []string{"tick", "content", "join", "leave"} {
		// Only one of the two is ever recorded in a given workload.
		m["core."+kind+"_s"] = of("core."+kind).TotalS + of("serve.apply."+kind).TotalS
		m["core."+kind+"_calls"] = float64(of("core."+kind).Calls) + float64(of("serve.apply."+kind).Calls)
	}
	m["core.leave_s"] += of("core.leaving").TotalS
}

// applyLayers derives a serve workload's tail metrics from the traced
// cycle: how long an apply holds the gate closed (serve-mixed; serve-bin
// applies nothing), and how many reads stall.
func applyLayers(trs []*tracer, c *cycle) {
	var applies []int32
	reads, stalled := 0, 0
	stall := int64(10 * c.P50US * 1e3)
	for _, t := range trs {
		for i := range t.spans {
			s := &t.spans[i]
			d := s.end - s.start
			switch {
			case s.name == "serve.read":
				reads++
				if d > stall {
					stalled++
				}
			case strings.HasPrefix(s.name, "serve.apply."):
				applies = append(applies, ns32(time.Duration(d)))
			}
		}
	}
	c.layers["serve.apply_calls"] = float64(len(applies))
	c.layers["serve.stalled_read_frac"] = float64(stalled) / float64(reads)
	c.layers["serve.read_p999_us"] = c.P999US
	if len(applies) == 0 {
		return
	}
	var sum int64
	for _, d := range applies {
		sum += int64(d)
	}
	slices.Sort(applies)
	c.layers["serve.apply_mean_us"] = float64(sum) / float64(len(applies)) / 1e3
	c.layers["serve.apply_p99_us"] = float64(percentile(applies, 99, 100)) / 1e3
}
