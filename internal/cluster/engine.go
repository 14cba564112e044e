package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/scenario"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/transport"
)

// Ad kinds on the mesh wire (transport.AdMsg.Kind).
const (
	adKindFull  = 0
	adKindPatch = 1
)

// Pins are operator-fixed configuration values (asapnode command-line
// flags): a Hello that disagrees with a pinned value is rejected, so a
// daemon started for one experiment cannot be pulled into another.
type Pins struct {
	Scale   string
	Scheme  string
	Topo    string
	Seed    uint64
	HasSeed bool // Seed was explicitly set (0 is a valid seed)
}

// Engine is one asapnode daemon: a single listener serving both the
// harness control session and inbound mesh peers, over a full local
// replica of the configured run. See the package comment for the
// execution model.
type Engine struct {
	tp   transport.Transport
	ln   transport.Listener
	pins Pins

	// now is the replay clock mesh connections charge traffic to; -1
	// (warm-up) until the stepper exists. Atomic: connection goroutines
	// read it while the control goroutine steps the replay.
	now atomic.Int64

	// recPub republishes rec for goroutines outside the control session
	// (the -metrics endpoint polls it).
	recPub atomic.Pointer[obs.Recorder]

	// mu guards the inbound publication queue and the failure latch.
	mu      sync.Mutex
	pending []transport.AdMsg
	failErr error

	// Control-goroutine state (one control session per daemon).
	helloed  bool
	lab      *experiments.Lab
	sys      *sim.System
	sch      sim.Scheme
	asap     *core.Scheme // nil for baseline schemes (no wire exchanges)
	rec      *obs.Recorder
	st       *sim.Stepper
	shard    overlay.Sharding
	index    int
	peers    []*transport.Conn // by daemon index; nil at own slot
	outAds   []transport.AdMsg // owned publications awaiting broadcast
	batch    []*trace.Event
	curOwned bool // the query being executed is owned by this daemon
	wbuf     []byte

	adsOut, adsIn, adsVerified, adsSuperseded atomic.Int64
	confirmsOut, confirmsIn                   atomic.Int64
	adsReqOut, adsReqIn                       atomic.Int64
}

// NewEngine wraps a bound listener in a daemon engine. tp dials the mesh;
// it must be the same backend the listener came from.
func NewEngine(tp transport.Transport, ln transport.Listener, pins Pins) *Engine {
	e := &Engine{tp: tp, ln: ln, pins: pins}
	e.now.Store(-1)
	return e
}

// Addr returns the engine's bound listen address.
func (e *Engine) Addr() string { return e.ln.Addr() }

// Recorder returns the engine's observability recorder — nil until a
// harness Hello configures the replica. Safe for concurrent use: the
// asapnode -metrics endpoint polls it from its own goroutine.
func (e *Engine) Recorder() *obs.Recorder { return e.recPub.Load() }

// Serve accepts connections until the listener closes (the Bye handshake,
// or an external Close). The first frame routes each connection: a Hello
// starts the control session, a PeerHello starts a mesh serving loop.
func (e *Engine) Serve() error {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return nil // listener closed: clean shutdown
		}
		go e.serveConn(c)
	}
}

func (e *Engine) serveConn(c *transport.Conn) {
	t, payload, err := c.ReadFrame()
	if err != nil {
		c.Close()
		return
	}
	switch t {
	case transport.MHello:
		e.control(c, payload)
	case transport.MPeerHello:
		e.serveMesh(c)
	default:
		c.WriteJSON(transport.MErr, transport.ErrMsg{Msg: fmt.Sprintf("unexpected first frame type %d", t)})
		c.Close()
	}
}

// control runs the harness session: one request, one reply, in lockstep.
func (e *Engine) control(c *transport.Conn, hello []byte) {
	defer c.Close()
	reply := func(t transport.MsgType, v any, err error) bool {
		if err == nil {
			e.mu.Lock()
			err = e.failErr
			e.mu.Unlock()
		}
		if err != nil {
			c.WriteJSON(transport.MErr, transport.ErrMsg{Msg: err.Error()})
			return false
		}
		return c.WriteJSON(t, v) == nil
	}
	ok, err := e.handleHello(hello)
	if !reply(transport.MHelloOK, ok, err) {
		return
	}
	for {
		t, p, err := c.ReadFrame()
		if err != nil {
			return
		}
		switch t {
		case transport.MPeers:
			if !reply(transport.MPeersOK, struct{}{}, e.handlePeers(p)) {
				return
			}
		case transport.MWarmup:
			ok, err := e.handleWarmup()
			if !reply(transport.MWarmupOK, ok, err) {
				return
			}
		case transport.MAdvance:
			ok, err := e.handleAdvance()
			if !reply(transport.MAdvanceOK, ok, err) {
				return
			}
		case transport.MQuery:
			ok, err := e.handleQuery(p)
			if !reply(transport.MQueryOK, ok, err) {
				return
			}
		case transport.MFinish:
			ok, err := e.handleFinish()
			if !reply(transport.MSummary, ok, err) {
				return
			}
		case transport.MBye:
			c.WriteJSON(transport.MByeOK, struct{}{})
			e.shutdown()
			return
		default:
			reply(0, nil, fmt.Errorf("unexpected control frame type %d", t))
			return
		}
	}
}

func (e *Engine) shutdown() {
	for _, pc := range e.peers {
		if pc != nil {
			pc.Close()
		}
	}
	e.ln.Close()
}

func (e *Engine) fail(err error) {
	e.mu.Lock()
	if e.failErr == nil {
		e.failErr = err
	}
	e.mu.Unlock()
}

// buildReplica constructs the deterministic (lab, system, scheme) triple
// for a Hello — the exact construction Lab.run performs, shared with
// SimBaseline so daemon replicas and the in-memory reference run are the
// same by construction.
func buildReplica(h HelloMsg) (*experiments.Lab, *sim.System, sim.Scheme, error) {
	var sn scenario.Scenario
	if h.Scenario != "" {
		var err error
		sn, err = scenario.ByName(h.Scenario)
		if err != nil {
			return nil, nil, nil, err
		}
		// The scenario is authoritative for its run shape: unset hello
		// fields inherit from it, contradictions are rejected, so replicas
		// can never stage the same scenario over different runs.
		if h.Scale == "" {
			h.Scale = sn.Scale
		}
		if h.Scheme == "" {
			h.Scheme = sn.Scheme
		}
		if h.Topo == "" {
			h.Topo = sn.Topo
		}
		if h.Scale != sn.Scale || h.Scheme != sn.Scheme || h.Topo != sn.Topo {
			return nil, nil, nil, fmt.Errorf("hello %s/%s/%s contradicts scenario %s (%s/%s/%s)",
				h.Scale, h.Scheme, h.Topo, sn.Name, sn.Scale, sn.Scheme, sn.Topo)
		}
		if h.Loss == 0 {
			h.Loss = sn.Loss
		}
	}
	sc, err := experiments.ByName(h.Scale)
	if err != nil {
		return nil, nil, nil, err
	}
	sc.Seed = h.Seed
	if h.Scenario == "" && h.Loss > 0 {
		sc.LossRate = h.Loss
	}
	kind, err := parseKind(h.Topo)
	if err != nil {
		return nil, nil, nil, err
	}
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return nil, nil, nil, err
	}
	var st *scenario.Staged
	if h.Scenario != "" {
		sn.Seed = h.Seed
		sn.Loss = h.Loss
		if st, err = scenario.Stage(sn, lab); err != nil {
			return nil, nil, nil, err
		}
	}
	sys := sim.NewSystem(lab.U, lab.Tr, kind, lab.Net, sc.Seed)
	if st != nil {
		// The staged Install owns the fault plane (loss and partitions)
		// and the act director; sc.LossRate stayed 0 above.
		st.Install(sys, h.Seed, h.Loss)
	} else if sc.LossRate > 0 {
		sys.SetFaults(faults.New(faults.Config{Seed: sc.Seed, LossRate: sc.LossRate}))
	}
	sch, err := lab.NewScheme(h.Scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	return lab, sys, sch, nil
}

func parseKind(name string) (overlay.Kind, error) {
	return overlay.KindByName(name)
}

func (e *Engine) handleHello(payload []byte) (HelloOK, error) {
	var h HelloMsg
	if err := json.Unmarshal(payload, &h); err != nil {
		return HelloOK{}, err
	}
	if e.helloed {
		return HelloOK{}, fmt.Errorf("daemon already configured")
	}
	if err := e.pins.check(h); err != nil {
		return HelloOK{}, err
	}
	if h.Nodes < 1 || h.Index < 0 || h.Index >= h.Nodes {
		return HelloOK{}, fmt.Errorf("bad cluster placement index=%d nodes=%d", h.Index, h.Nodes)
	}
	lab, sys, sch, err := buildReplica(h)
	if err != nil {
		return HelloOK{}, err
	}
	e.helloed = true
	e.lab, e.sys, e.sch = lab, sys, sch
	e.rec = obs.NewRecorder(int(lab.Tr.Span()/1000) + 2)
	e.recPub.Store(e.rec)
	sys.SetObs(e.rec)
	e.index = h.Index
	e.shard = overlay.NewSharding(sys.NumNodes(), h.Nodes)
	e.peers = make([]*transport.Conn, h.Nodes)
	if a, isASAP := sch.(*core.Scheme); isASAP {
		e.asap = a
		a.SetPeering(e)
		a.SetAdObserver(e.observeAd)
	}
	return HelloOK{Addr: e.ln.Addr(), NumNodes: sys.NumNodes()}, nil
}

func (p Pins) check(h HelloMsg) error {
	if p.Scale != "" && p.Scale != h.Scale {
		return fmt.Errorf("daemon pinned to -scale %s, hello wants %s", p.Scale, h.Scale)
	}
	if p.Scheme != "" && p.Scheme != h.Scheme {
		return fmt.Errorf("daemon pinned to -scheme %s, hello wants %s", p.Scheme, h.Scheme)
	}
	if p.Topo != "" && p.Topo != h.Topo {
		return fmt.Errorf("daemon pinned to -topo %s, hello wants %s", p.Topo, h.Topo)
	}
	if p.HasSeed && p.Seed != h.Seed {
		return fmt.Errorf("daemon pinned to -seed %d, hello wants %d", p.Seed, h.Seed)
	}
	return nil
}

func (e *Engine) handlePeers(payload []byte) error {
	if !e.helloed {
		return fmt.Errorf("peers before hello")
	}
	var pm PeersMsg
	if err := json.Unmarshal(payload, &pm); err != nil {
		return err
	}
	if len(pm.Addrs) != len(e.peers) {
		return fmt.Errorf("got %d peer addrs, cluster has %d daemons", len(pm.Addrs), len(e.peers))
	}
	for j, addr := range pm.Addrs {
		if j == e.index {
			continue
		}
		pc, err := e.tp.Dial(addr)
		if err != nil {
			return fmt.Errorf("dialing daemon %d at %s: %w", j, addr, err)
		}
		pc.SetRecorder(e.rec, e.now.Load)
		if err := pc.WriteJSON(transport.MPeerHello, HelloMsg{Index: e.index}); err != nil {
			return err
		}
		e.peers[j] = pc
	}
	return nil
}

func (e *Engine) handleWarmup() (WarmupOK, error) {
	if !e.helloed {
		return WarmupOK{}, fmt.Errorf("warmup before hello")
	}
	if e.st != nil {
		return WarmupOK{}, fmt.Errorf("warmup already done")
	}
	// NewStepper attaches the scheme: the warm-up ad distribution runs here
	// and the observer queues every owned publication.
	e.st = sim.NewStepper(e.sys, e.sch, 0)
	e.now.Store(e.st.Now())
	n, err := e.flushAds()
	if err == nil {
		// Ads from peers that warmed up before us verify against our own
		// freshly attached replica.
		err = e.verifyPending()
	}
	return WarmupOK{Broadcast: n}, err
}

func (e *Engine) handleAdvance() (AdvanceOK, error) {
	if e.st == nil {
		return AdvanceOK{}, fmt.Errorf("advance before warmup")
	}
	e.batch = e.st.NextBatch()
	e.now.Store(e.st.Now())
	n, err := e.flushAds()
	if err != nil {
		return AdvanceOK{}, err
	}
	// Verify AFTER stepping: peers earlier in the harness round have
	// already advanced through the same events, so their pushes describe
	// publications this replica has just (re)made itself. Pushes from
	// peers later in the round arrive while we idle and are checked at the
	// next barrier (first query, next advance, or finish).
	if err := e.verifyPending(); err != nil {
		return AdvanceOK{}, err
	}
	ok := AdvanceOK{Done: e.batch == nil, Broadcast: n}
	for _, ev := range e.batch {
		terms := make([]uint32, len(ev.Terms))
		for i, t := range ev.Terms {
			terms[i] = uint32(t)
		}
		ok.Queries = append(ok.Queries, QueryRef{T: ev.Time, Node: int32(ev.Node), Terms: terms})
	}
	return ok, nil
}

func (e *Engine) handleQuery(payload []byte) (QueryOK, error) {
	var q QueryMsg
	if err := json.Unmarshal(payload, &q); err != nil {
		return QueryOK{}, err
	}
	if e.st == nil {
		return QueryOK{}, fmt.Errorf("query before warmup")
	}
	if q.Index < 0 || q.Index >= len(e.batch) {
		return QueryOK{}, fmt.Errorf("query index %d outside batch of %d", q.Index, len(e.batch))
	}
	if err := e.verifyPending(); err != nil {
		return QueryOK{}, err
	}
	ev := e.batch[q.Index]
	// Every replica executes every query (keeping caches and stats in
	// lockstep); only the owner's execution crosses the wire.
	e.curOwned = e.owns(ev.Node)
	r := e.sch.Search(ev)
	e.st.Record(ev, r)
	return QueryOK{Result: r, Owner: e.curOwned}, nil
}

func (e *Engine) handleFinish() (SummaryMsg, error) {
	if e.st == nil {
		return SummaryMsg{}, fmt.Errorf("finish before warmup")
	}
	if err := e.verifyPending(); err != nil {
		return SummaryMsg{}, err
	}
	sum := e.st.Finish()
	return SummaryMsg{Summary: sum, Net: NetStats{
		AdsOut:        e.adsOut.Load(),
		AdsIn:         e.adsIn.Load(),
		AdsVerified:   e.adsVerified.Load(),
		AdsSuperseded: e.adsSuperseded.Load(),
		ConfirmsOut:   e.confirmsOut.Load(),
		ConfirmsIn:    e.confirmsIn.Load(),
		AdsReqOut:     e.adsReqOut.Load(),
		AdsReqIn:      e.adsReqIn.Load(),
	}}, nil
}

// owns reports whether this daemon speaks for node n on the wire.
func (e *Engine) owns(n overlay.NodeID) bool { return e.shard.ShardOf(n) == e.index }

// observeAd is the core.AdObserver hook: owned publications queue for
// broadcast at the next step barrier. Runner thread (control goroutine);
// the pooled patch buffer must be encoded before returning.
func (e *Engine) observeAd(src overlay.NodeID, version uint16, topics content.ClassSet, filter *bloom.Filter, patch *bloom.Patch) {
	if !e.owns(src) || len(e.peers) <= 1 {
		return
	}
	m := transport.AdMsg{Src: uint32(src), Version: version, Topics: uint16(topics), Full: filter.EncodeWire()}
	if patch != nil {
		m.Kind = adKindPatch
		m.Patch = patch.Encode()
	}
	e.outAds = append(e.outAds, m)
}

// flushAds pushes every queued owned publication to every peer, awaiting
// each ack — so once the harness has collected this step's reply from all
// daemons, every broadcast sits in its receivers' pending queues.
func (e *Engine) flushAds() (int, error) {
	ads := e.outAds
	e.outAds = e.outAds[:0]
	for i := range ads {
		e.wbuf = ads[i].Encode(e.wbuf[:0])
		for j, pc := range e.peers {
			if pc == nil {
				continue
			}
			if err := pc.WriteFrame(transport.MAd, e.wbuf); err != nil {
				return 0, fmt.Errorf("pushing ad to daemon %d: %w", j, err)
			}
			t, _, err := pc.ReadFrame()
			if err != nil {
				return 0, fmt.Errorf("awaiting ad ack from daemon %d: %w", j, err)
			}
			if t != transport.MAdAck {
				return 0, fmt.Errorf("daemon %d answered ad with frame type %d", j, t)
			}
		}
		e.adsOut.Add(1)
	}
	return len(ads), nil
}

// verifyPending checks every publication received since the last barrier
// against the local replica: in lockstep the local scheme published the
// identical snapshot, so the received bytes must match it exactly. A
// version the local replica has already moved past is counted as
// superseded (the publisher sent several updates in one step) and skipped.
func (e *Engine) verifyPending() error {
	e.mu.Lock()
	pending := e.pending
	e.pending = nil
	e.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	if e.asap == nil {
		return fmt.Errorf("received %d ad pushes under a baseline scheme", len(pending))
	}
	for _, m := range pending {
		local, ok := e.asap.PublishedAd(overlay.NodeID(m.Src))
		if !ok {
			return fmt.Errorf("replica divergence: peer advertised node %d, which published nothing here", m.Src)
		}
		if newer16(local.Version, m.Version) {
			e.adsSuperseded.Add(1)
			continue
		}
		if local.Version != m.Version {
			return fmt.Errorf("replica divergence: node %d ad version %d from peer, %d here", m.Src, m.Version, local.Version)
		}
		if content.ClassSet(m.Topics) != local.Topics {
			return fmt.Errorf("replica divergence: node %d ad topics %04x from peer, %04x here", m.Src, m.Topics, uint16(local.Topics))
		}
		if !bytes.Equal(m.Full, local.Filter.EncodeWire()) {
			return fmt.Errorf("replica divergence: node %d v%d filter bytes differ from local replica", m.Src, m.Version)
		}
		if m.Kind == adKindPatch {
			if len(m.Patch) != local.PatchWire {
				return fmt.Errorf("replica divergence: node %d v%d patch is %d wire bytes, local sizing says %d",
					m.Src, m.Version, len(m.Patch), local.PatchWire)
			}
			if _, err := bloom.DecodePatch(m.Patch); err != nil {
				return fmt.Errorf("node %d v%d patch does not decode: %w", m.Src, m.Version, err)
			}
		}
		e.adsVerified.Add(1)
	}
	return nil
}

// newer16 reports a strictly newer than b under 16-bit serial-number
// arithmetic (the ad version space).
func newer16(a, b uint16) bool { return a != b && int16(a-b) > 0 }

// serveMesh answers one peer daemon's exchanges until its connection
// closes. Confirmations and ads requests are pure reads of the replica
// (safe during query execution); ad pushes queue for barrier verification.
func (e *Engine) serveMesh(c *transport.Conn) {
	defer c.Close()
	c.SetRecorder(e.rec, e.now.Load)
	var buf []byte
	for {
		t, p, err := c.ReadFrame()
		if err != nil {
			return
		}
		switch t {
		case transport.MAd:
			m, err := transport.DecodeAd(p)
			if err != nil {
				e.fail(fmt.Errorf("bad ad push: %w", err))
				return
			}
			// The payload aliases the read buffer of this frame only; the
			// decode above keeps sub-slices, which the next ReadFrame would
			// not clobber (each frame allocates its body) — queue as-is.
			e.mu.Lock()
			e.pending = append(e.pending, m)
			e.mu.Unlock()
			e.adsIn.Add(1)
			if err := c.WriteFrame(transport.MAdAck, nil); err != nil {
				return
			}
		case transport.MConfirmReq:
			req, err := transport.DecodeConfirmReq(p)
			if err != nil {
				e.fail(fmt.Errorf("bad confirm request: %w", err))
				return
			}
			if e.asap == nil {
				e.fail(fmt.Errorf("confirm request under a baseline scheme"))
				return
			}
			alive, match := e.asap.ConfirmWire(overlay.NodeID(req.Src), keywords(req.Terms))
			var flags byte
			if alive {
				flags |= transport.ConfirmAlive
			}
			if match {
				flags |= transport.ConfirmMatch
			}
			e.confirmsIn.Add(1)
			if err := c.WriteFrame(transport.MConfirmOK, []byte{flags}); err != nil {
				return
			}
		case transport.MAdsReq:
			req, err := transport.DecodeAdsReq(p)
			if err != nil {
				e.fail(fmt.Errorf("bad ads request: %w", err))
				return
			}
			if e.asap == nil {
				e.fail(fmt.Errorf("ads request under a baseline scheme"))
				return
			}
			served := e.asap.ServeAdsWire(overlay.NodeID(req.Requester), overlay.NodeID(req.Target),
				content.ClassSet(req.Interests), req.StaleBefore, keywords(req.Terms))
			offers := make([]transport.AdOffer, len(served))
			for i, s := range served {
				offers[i] = transport.AdOffer{Src: uint32(s.Src), Version: s.Version, Topics: uint16(s.Topics), Filter: s.Filter.EncodeWire()}
			}
			buf = transport.EncodeAdsReply(buf[:0], offers)
			e.adsReqIn.Add(1)
			if err := c.WriteFrame(transport.MAdsOK, buf); err != nil {
				return
			}
		default:
			e.fail(fmt.Errorf("unexpected mesh frame type %d", t))
			return
		}
	}
}

// Confirm implements core.Peering: the owner of the searching node asks
// the owner of the candidate source over the wire and checks the remote
// verdicts against the local replica's. The local verdicts drive the
// replay either way, so even a diverged run stays deterministic while the
// mismatch propagates to the harness.
func (e *Engine) Confirm(requester, src overlay.NodeID, terms []content.Keyword, localAlive, localMatch bool) (bool, bool) {
	if !e.curOwned || e.owns(src) || e.broken() {
		return localAlive, localMatch
	}
	pc := e.peers[e.shard.ShardOf(src)]
	req := transport.ConfirmReq{Src: uint32(src), Terms: termsU32(terms)}
	e.wbuf = req.Encode(e.wbuf[:0])
	if err := pc.WriteFrame(transport.MConfirmReq, e.wbuf); err != nil {
		e.fail(err)
		return localAlive, localMatch
	}
	t, p, err := pc.ReadFrame()
	if err != nil || t != transport.MConfirmOK || len(p) != 1 {
		e.fail(fmt.Errorf("confirm exchange for node %d failed (type %d, err %v)", src, t, err))
		return localAlive, localMatch
	}
	e.confirmsOut.Add(1)
	alive, match := p[0]&transport.ConfirmAlive != 0, p[0]&transport.ConfirmMatch != 0
	if alive != localAlive || match != localMatch {
		e.fail(fmt.Errorf("replica divergence: confirm(%d) = alive=%v match=%v remotely, alive=%v match=%v here",
			src, alive, match, localAlive, localMatch))
	}
	return localAlive, localMatch
}

// ServeAds implements core.Peering: the owner of the searching node
// fetches the same ads reply from the target's owner and checks it
// offer-for-offer — identity, topics and filter bytes — against what the
// local replica served.
func (e *Engine) ServeAds(requester, target overlay.NodeID, interests content.ClassSet, staleBefore sim.Clock, terms []content.Keyword, offered []core.AdServed) {
	if !e.curOwned || e.owns(target) || e.broken() {
		return
	}
	pc := e.peers[e.shard.ShardOf(target)]
	req := transport.AdsReq{
		Target:      uint32(target),
		Requester:   uint32(requester),
		Interests:   uint16(interests),
		StaleBefore: staleBefore,
		Max:         uint32(len(offered)) + 1, // informational; the server re-derives its own cap
		Terms:       termsU32(terms),
	}
	e.wbuf = req.Encode(e.wbuf[:0])
	if err := pc.WriteFrame(transport.MAdsReq, e.wbuf); err != nil {
		e.fail(err)
		return
	}
	t, p, err := pc.ReadFrame()
	if err != nil || t != transport.MAdsOK {
		e.fail(fmt.Errorf("ads exchange with owner of node %d failed (type %d, err %v)", target, t, err))
		return
	}
	remote, err := transport.DecodeAdsReply(p)
	if err != nil {
		e.fail(fmt.Errorf("bad ads reply for node %d: %w", target, err))
		return
	}
	e.adsReqOut.Add(1)
	if len(remote) != len(offered) {
		e.fail(fmt.Errorf("replica divergence: node %d served %d ads remotely, %d here", target, len(remote), len(offered)))
		return
	}
	for i, r := range remote {
		l := offered[i]
		if overlay.NodeID(r.Src) != l.Src || r.Version != l.Version || content.ClassSet(r.Topics) != l.Topics {
			e.fail(fmt.Errorf("replica divergence: node %d ads reply offer %d is %d/v%d remotely, %d/v%d here",
				target, i, r.Src, r.Version, l.Src, l.Version))
			return
		}
		if !bytes.Equal(r.Filter, l.Filter.EncodeWire()) {
			e.fail(fmt.Errorf("replica divergence: node %d ads reply offer %d (node %d v%d) filter bytes differ",
				target, i, r.Src, r.Version))
			return
		}
	}
}

func (e *Engine) broken() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failErr != nil
}

func termsU32(terms []content.Keyword) []uint32 {
	out := make([]uint32, len(terms))
	for i, t := range terms {
		out[i] = uint32(t)
	}
	return out
}

func keywords(terms []uint32) []content.Keyword {
	out := make([]content.Keyword, len(terms))
	for i, t := range terms {
		out[i] = content.Keyword(t)
	}
	return out
}

// SimBaseline runs the identical configuration through the in-memory
// sequential replay — the ground truth the cluster run must equal.
func SimBaseline(spec Spec) (metrics.Summary, error) {
	_, sys, sch, err := buildReplica(HelloMsg{Scale: spec.Scale, Scheme: spec.Scheme, Topo: spec.Topo,
		Seed: spec.Seed, Loss: spec.Loss, Scenario: spec.Scenario, Nodes: 1})
	if err != nil {
		return metrics.Summary{}, err
	}
	return sim.Run(sys, sch, sim.RunOptions{}), nil
}
