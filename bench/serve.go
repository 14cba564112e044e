package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/overlay"
	"asap/internal/serve"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/transport"
)

// readsPerCaller is the fixed length of one caller's measured read
// sequence: 15,000 in-process searches, or 100,000 exchanges on one
// binary-protocol connection.
func (e *env) readsPerCaller(bin bool) int {
	switch {
	case e.quick && bin:
		return 2000
	case e.quick:
		return 1500
	case bin:
		return 100_000
	}
	return 15_000
}

// query is one read template: a trace query's issuer and terms.
type query struct {
	from  overlay.NodeID
	terms []content.Keyword
}

// write is one state change of the measured phase: a trace state event,
// or (ev == nil) the per-second tick at tickMS.
type write struct {
	ev     *trace.Event
	tickMS int64
}

// warmHalf replays the trace prefix that holds the first half of its
// queries — state events, ticks and searches, as the batch replay would —
// and returns the index of the first event it did not consume.
func warmHalf(st *sim.Stepper, sch sim.Scheme, tr *trace.Trace) int {
	half := tr.Stats().Queries / 2
	done, next := 0, 0
	for done < half {
		batch := st.NextBatch()
		if batch == nil {
			break
		}
		for _, ev := range batch {
			st.Record(ev, sch.Search(ev))
		}
		done += len(batch)
		for last := batch[len(batch)-1]; &tr.Events[next] != last; {
			next++
		}
		next++
	}
	return next
}

// writesFrom lists the state changes the rest of the trace holds, in the
// stepper's order: every state event from index cut on, and every
// per-second tick between nowMS and the load horizon.
func writesFrom(tr *trace.Trace, cut int, nowMS int64, horizonSec int) []write {
	var out []write
	nextTick := nowMS + 1000
	for i := cut; i < len(tr.Events); i++ {
		ev := &tr.Events[i]
		for ; nextTick <= ev.Time; nextTick += 1000 {
			out = append(out, write{tickMS: nextTick})
		}
		if ev.Kind != trace.Query {
			out = append(out, write{ev: ev})
		}
	}
	for ; nextTick <= int64(horizonSec)*1000; nextTick += 1000 {
		out = append(out, write{tickMS: nextTick})
	}
	return out
}

// catalogFrom lists the trace's query templates whose issuer is alive now
// and does not leave in the events still to be applied, in trace order
// (the order the Zipf ranks follow). serve.BuildCatalog filters on one
// predicate only and belongs to the load generator, outside the surface
// this benchmark holds itself to.
func catalogFrom(tr *trace.Trace, cut int, sys *sim.System) []query {
	leaves := map[overlay.NodeID]bool{}
	for i := cut; i < len(tr.Events); i++ {
		if ev := &tr.Events[i]; ev.Kind == trace.Leave {
			leaves[ev.Node] = true
		}
	}
	var out []query
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Kind == trace.Query && sys.G.Alive(ev.Node) && !leaves[ev.Node] {
			out = append(out, query{from: ev.Node, terms: ev.Terms})
		}
	}
	return out
}

// apply runs one write through the node's write section.
func (w *write) apply(n *serve.Node, tr *tracer) {
	if w.ev == nil {
		id := tr.begin("serve.apply.tick", -1)
		n.Tick(w.tickMS)
		tr.end(id)
		return
	}
	id := tr.begin(applySpan(w.ev.Kind), -1)
	n.ApplyEvent(w.ev)
	tr.end(id)
}

func applySpan(k trace.Kind) string {
	switch k {
	case trace.Join:
		return "serve.apply.join"
	case trace.Leave:
		return "serve.apply.leave"
	}
	return "serve.apply.content"
}

// answer is what one read returned.
type answer struct {
	sources []overlay.NodeID
	phase2  bool
}

// reader issues catalog entry q on behalf of caller g and returns its
// answer; the sources slice is valid until g's next call.
type reader func(g int, q *query, tr *tracer) (answer, error)

// inprocReader calls Node.Search directly, one result buffer per caller.
func inprocReader(n *serve.Node, callers int) reader {
	dst := make([][]overlay.NodeID, callers)
	return func(g int, q *query, _ *tracer) (answer, error) {
		res, out, _, err := n.Search(q.from, q.terms, dst[g][:0])
		dst[g] = out
		return answer{sources: res.Sources, phase2: res.Phase2}, err
	}
}

// binClient is one caller's persistent binary-protocol connection and its
// reused buffers.
type binClient struct {
	conn  *transport.Conn
	req   transport.ServeQuery
	buf   []byte
	nodes []overlay.NodeID
}

// binReader runs one MServeQuery exchange per read: encode, frame write,
// frame read, decode.
func binReader(clients []binClient) reader {
	return func(g int, q *query, tr *tracer) (answer, error) {
		c := &clients[g]
		c.req.From = uint32(q.from)
		c.req.Terms = c.req.Terms[:0]
		for _, t := range q.terms {
			c.req.Terms = append(c.req.Terms, uint32(t))
		}
		c.buf = c.req.Encode(c.buf[:0])
		id := tr.begin("transport.write_frame", -1)
		err := c.conn.WriteFrame(transport.MServeQuery, c.buf)
		tr.end(id)
		if err != nil {
			return answer{}, err
		}
		id = tr.begin("transport.read_frame", -1)
		t, p, err := c.conn.ReadFrame()
		tr.end(id)
		if err != nil {
			return answer{}, err
		}
		if t != transport.MServeOK {
			return answer{}, fmt.Errorf("server answered frame type %#x", byte(t))
		}
		reply, err := transport.DecodeServeReply(p)
		if err != nil {
			return answer{}, err
		}
		c.nodes = c.nodes[:0]
		for _, s := range reply.Sources {
			c.nodes = append(c.nodes, overlay.NodeID(s))
		}
		return answer{sources: c.nodes, phase2: reply.Phase2}, nil
	}
}

// binServer is the serve-bin cycle's listener, server loop and dialled
// client connections.
type binServer struct {
	srv     *serve.BinaryServer
	done    chan error
	clients []binClient
}

func startBin(n *serve.Node, conns int) (*binServer, error) {
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &binServer{srv: serve.NewBinary(n, ln), done: make(chan error, 1), clients: make([]binClient, conns)}
	go func() { b.done <- b.srv.Serve() }()
	for i := range b.clients {
		c, err := transport.TCP{}.Dial(b.srv.Addr())
		if err != nil {
			b.stop()
			return nil, err
		}
		b.clients[i].conn = c
	}
	return b, nil
}

// stop says goodbye on every connection (the server's per-connection
// goroutine returns once it has acknowledged), closes them and the
// listener, and waits for the accept loop to end.
func (b *binServer) stop() error {
	var first error
	for i := range b.clients {
		c := b.clients[i].conn
		if c == nil {
			continue
		}
		if err := c.WriteFrame(transport.MServeBye, nil); err == nil {
			if t, _, err := c.ReadFrame(); err != nil || t != transport.MServeByeOK {
				first = errors.Join(first, fmt.Errorf("connection %d: no goodbye ack (%v)", i, err))
			}
		}
		c.Close()
	}
	b.srv.Close()
	return errors.Join(first, <-b.done)
}

// serveCycle warms an asap-rw node on the first half of the trace and
// measures reads against it. In-process (bin false), P callers run
// Node.Search over a Zipf mix while caller 0 applies the second half's
// state events and ticks, one every few reads by count. Over the binary
// endpoint (bin true) the node is read-only and max(1, P/2) callers each
// drive one loopback TCP connection. Either way the load is closed-loop:
// a caller issues its next read when the previous one has returned.
//
// trs holds one tracer per caller, or is nil. probe, when non-nil, runs
// against the quiescent node after the checks (the traced run's per-layer
// loops) and may add to the cycle's layer metrics.
func (e *env) serveCycle(bin bool, trs []*tracer, probe func(*servedNode, *cycle) error) (cycle, error) {
	base := liveHeap()
	c := cycle{HostRefMS: hostRef(e.table)}
	callers := e.procs
	if bin {
		callers = max(1, e.procs/2)
	}
	reads := e.readsPerCaller(bin)
	tracerOf := func(g int) *tracer {
		if trs == nil {
			return nil
		}
		return trs[g]
	}
	tr := tracerOf(0)

	t0 := time.Now()
	setup := tr.begin("bench.setup", -1)
	lab, err := e.newLab(tr)
	if err != nil {
		return c, err
	}
	sys := e.newSystem(lab, tr)
	raw, err := lab.NewScheme("asap-rw")
	if err != nil {
		return c, err
	}
	sch := raw.(*core.Scheme)
	id := tr.begin("core.attach", -1) // NewStepper is Attach plus a few field writes
	st := sim.NewStepper(sys, sch, 0)
	tr.end(id)
	id = tr.begin("bench.warm_replay", -1)
	cut := warmHalf(st, sch, lab.Tr)
	tr.end(id)
	node := serve.NewNode(sys, sch, serve.Config{Workers: e.procs})
	node.Apply(st.Now(), nil) // position the serving clock at the last tick fired
	applies := 1
	read := inprocReader(node, callers)
	var srv *binServer
	if bin {
		id = tr.begin("serve.listen_dial", -1)
		srv, err = startBin(node, callers)
		tr.end(id)
		if err != nil {
			return c, err
		}
		read = binReader(srv.clients)
	}
	tr.end(setup)
	c.SetupS = time.Since(t0).Seconds()

	// The benchmark's own inputs, outside both timed regions.
	catalog := catalogFrom(lab.Tr, cut, sys)
	if len(catalog) == 0 {
		return c, errors.New("empty query catalog")
	}
	var writes []write
	if !bin {
		writes = writesFrom(lab.Tr, cut, st.Now(), sys.Load.Seconds())
	}
	for g := 0; g < callers; g++ {
		if len(e.mix[g]) != reads {
			e.mix[g] = zipfMix(e.mix[g][:0], len(catalog), reads, e.seed, uint64(g))
		}
	}

	runtime.GC()
	var before runtimeSnap
	if trs != nil {
		before = snapRuntime()
	}
	failed := make([]int, callers)
	hits := make([]int, callers)
	phase2 := make([]int, callers)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := tracerOf(g)
			lat := e.lat[g][:0]
			applied := 0
			<-gate
			root := tr.begin("bench.caller", -1)
			for i, qi := range e.mix[g] {
				id := tr.begin("serve.read", i)
				t := time.Now()
				a, err := read(g, &catalog[qi], tr)
				lat = append(lat, ns32(time.Since(t)))
				tr.end(id)
				switch {
				case err != nil:
					failed[g]++
				case len(a.sources) > 0:
					hits[g]++
				}
				if a.phase2 {
					phase2[g]++
				}
				if g == 0 {
					for due := writesDue(i+1, reads, len(writes)); applied < due; applied++ {
						writes[applied].apply(node, tr)
					}
				}
			}
			tr.end(root)
			e.lat[g] = lat
		}(g)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	c.WallS = time.Since(start).Seconds()
	applies += len(writes)
	c.Ops = callers*reads + len(writes)
	if trs != nil {
		c.layers = before.since(c.Ops)
	}
	c.finish(e.lat[:callers])
	c.HeapMB = float64(liveHeap()-base) / (1 << 20)
	for g := range failed {
		c.Failed += failed[g]
	}

	// Correctness on the quiescent node, through the same path.
	sn := &servedNode{node: node, sys: sys, sch: sch, catalog: catalog, read: read, mix: e.mix[0]}
	if err := sn.check(min(reads, e.quiescentChecks()), applies); err != nil {
		c.Failed = c.Ops
		logf("serve check failed: %v", err)
	}
	if trs != nil {
		var h, p2 int
		for g := range hits {
			h += hits[g]
			p2 += phase2[g]
		}
		c.layers["core.hit_frac"] = float64(h) / float64(callers*reads)
		c.layers["core.phase2_frac"] = float64(p2) / float64(callers*reads)
		c.layers["serve.shed"] = float64(node.Stats().Shed())
	}
	if probe != nil {
		if err := probe(sn, &c); err != nil {
			return c, err
		}
	}
	if srv != nil {
		if err := srv.stop(); err != nil {
			return c, err
		}
	}
	runtime.KeepAlive(lab)
	return c, nil
}

func (e *env) quiescentChecks() int {
	if e.quick {
		return 200
	}
	return 2000
}

// servedNode is a warm node at rest, with what is needed to query it.
type servedNode struct {
	node    *serve.Node
	sys     *sim.System
	sch     *core.Scheme
	catalog []query
	read    reader
	mix     []int32
}

// check issues n catalog queries through the measured path and verifies
// the serving invariants: every returned source is alive and really holds
// a document matching every term, the gate epoch counts every apply, and
// nothing was shed.
func (s *servedNode) check(n, applies int) error {
	for _, qi := range s.mix[:n] {
		q := &s.catalog[qi]
		a, err := s.read(0, q, nil)
		if err != nil {
			return fmt.Errorf("quiescent read: %w", err)
		}
		for _, src := range a.sources {
			if !s.sys.G.Alive(src) || !s.sys.NodeMatches(src, q.terms) {
				return fmt.Errorf("node %d answered for peer %d terms %v without being a live match", src, q.from, q.terms)
			}
		}
	}
	if got := s.node.Epoch(); got != 2*uint64(applies) {
		return fmt.Errorf("gate epoch %d after %d applies", got, applies)
	}
	if shed := s.node.Stats().Shed(); shed != 0 {
		return fmt.Errorf("%d reads shed", shed)
	}
	return nil
}
