package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// Admission-control shed reasons. Endpoints map the first two to HTTP
// 429 (retryable) and ErrDraining to 503 (the node is going away).
var (
	// ErrThrottled means the token bucket is empty: the configured
	// sustained admission rate is exceeded.
	ErrThrottled = errors.New("serve: admission rate exceeded")
	// ErrOverloaded means every worker slot is busy and the bounded wait
	// queue is full.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrDraining means the node is shutting down gracefully.
	ErrDraining = errors.New("serve: draining")
)

// Config sizes a serving node's concurrency and admission control.
type Config struct {
	// Workers is the number of concurrent in-flight searches (reader
	// slots and pooled scratch states). Zero defaults to GOMAXPROCS.
	Workers int
	// MaxQueue bounds how many admitted requests may wait for a worker
	// slot beyond the in-flight cap before new ones shed with
	// ErrOverloaded. Zero means no queueing: busy ⇒ shed.
	MaxQueue int
	// Rate is the token-bucket admission rate in requests/second;
	// 0 disables rate limiting.
	Rate float64
	// Burst is the bucket depth; admitted bursts above the sustained
	// rate. Zero with Rate > 0 defaults to Rate (a one-second burst).
	Burst float64
}

// Stats are the serving plane's wall-clock counters, exported on
// /metrics next to the ledger's sim-time totals.
type Stats struct {
	// Served counts queries that executed (successfully admitted).
	Served atomic.Int64
	// ShedRate / ShedQueue / ShedDrain count requests shed by the token
	// bucket, the full wait queue, and graceful drain respectively.
	ShedRate  atomic.Int64
	ShedQueue atomic.Int64
	ShedDrain atomic.Int64
	// Wall is the wall-clock latency histogram of served queries,
	// measured around the lock-free search section.
	Wall obs.WallHist
}

// Shed returns the total number of shed requests.
func (s *Stats) Shed() int64 {
	return s.ShedRate.Load() + s.ShedQueue.Load() + s.ShedDrain.Load()
}

// WriteProm exports the serving counters and wall-latency histogram.
func (s *Stats) WriteProm(w *obs.PromWriter) {
	w.Counter("asap_serve_served_total", "Queries admitted and executed.", s.Served.Load())
	w.Counter("asap_serve_shed_rate_total", "Requests shed by the admission token bucket.", s.ShedRate.Load())
	w.Counter("asap_serve_shed_queue_total", "Requests shed because the wait queue was full.", s.ShedQueue.Load())
	w.Counter("asap_serve_shed_drain_total", "Requests shed during graceful drain.", s.ShedDrain.Load())
	s.Wall.WriteProm(w, "asap_serve_wall_seconds", "Wall-clock latency of served queries.")
}

// servCtx is one worker slot's pooled per-query state: the slot index
// into the gate and the search scratch. Slots circulate through a
// channel, so acquiring one is a single channel receive and steady-state
// serving allocates nothing.
type servCtx struct {
	slot int
	sc   *core.ServeScratch
}

// Node is a warm ASAP node serving concurrent read-only searches while
// trace state events apply between them. The read path is lock-free
// (Gate); writes are serialised through Apply and Tick. The virtual clock
// — the `now` searches evaluate staleness against — only moves inside
// write sections, so every answer is a pure function of the epoch it was
// read under.
type Node struct {
	sys  *sim.System
	sch  *core.Scheme
	gate *Gate

	nowMS atomic.Int64
	ctxs  chan servCtx

	// tickAt is the time of the tick in flight and closeTick its fence
	// (closeForTick, bound once so a tick allocates nothing); both are
	// used under the gate's writer lock only. onTick, set by tests only,
	// runs at the end of every tick's closed section.
	tickAt    int64
	closeTick func()
	onTick    func()

	cfg      Config
	bucket   tokenBucket
	waiting  atomic.Int64
	draining atomic.Bool
	drained  chan struct{} // closed once Drain has collected every slot

	stats Stats
}

// NewNode wraps an attached (warm) scheme and its system in a serving
// node. The caller must not mutate the scheme except through Apply and
// Tick from this point on.
func NewNode(sys *sim.System, sch *core.Scheme, cfg Config) *Node {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	n := &Node{
		sys:     sys,
		sch:     sch,
		gate:    NewGate(cfg.Workers),
		ctxs:    make(chan servCtx, cfg.Workers),
		cfg:     cfg,
		drained: make(chan struct{}),
	}
	n.closeTick = n.closeForTick
	n.bucket.rate, n.bucket.burst = cfg.Rate, cfg.Burst
	n.bucket.tokens, n.bucket.last = cfg.Burst, time.Now()
	for i := 0; i < cfg.Workers; i++ {
		n.ctxs <- servCtx{slot: i, sc: core.NewServeScratch()}
	}
	return n
}

// System returns the underlying replay system (read it only via Apply
// or from endpoint setup code before serving starts).
func (n *Node) System() *sim.System { return n.sys }

// Stats returns the serving counters.
func (n *Node) Stats() *Stats { return &n.stats }

// Now returns the virtual clock in ms (the time of the last Apply).
func (n *Node) Now() sim.Clock { return n.nowMS.Load() }

// Epoch returns the gate epoch: 2 × the number of completed applies.
func (n *Node) Epoch() uint64 { return n.gate.Epoch() }

// Apply runs fn inside a write section closed up front: the virtual
// clock advances to nowMS, then fn may mutate the system and scheme
// freely. No search executes concurrently; searches admitted meanwhile
// spin briefly in the gate. Answers computed by fn (e.g. oracle snapshots)
// happen-before any read section that observes the new epoch.
func (n *Node) Apply(nowMS int64, fn func()) {
	n.gate.BeginApply()
	n.nowMS.Store(max(n.nowMS.Load(), nowMS))
	if fn != nil {
		fn()
	}
	n.gate.EndApply()
}

// ApplyEvent applies one non-query trace event (churn, content, join,
// leave) through the write section, advancing the clock to the event
// time. The gate closes up front: the event mutates the overlay and the
// content index before the scheme sees it.
func (n *Node) ApplyEvent(ev *trace.Event) {
	n.Apply(ev.Time, func() { sim.ApplyStateEvent(n.sys, n.sch, ev) })
}

// Tick fires the scheme's periodic work (the refresh wheel slot) at the
// given virtual time. It takes the writer lock but leaves the gate open
// while the refresh ads reach their nodes, which reads the store and
// writes only the scheme's delivery scratch; the gate closes, and the
// clock advances to nowMS, when the scheme opens its first write section
// (core.Scheme.TickUnder). A tick that writes nothing still closes the
// gate, so the epoch counts every tick.
func (n *Node) Tick(nowMS int64) {
	n.gate.mu.Lock()
	n.tickAt = nowMS
	n.sch.TickUnder(nowMS, n.closeTick)
	if n.onTick != nil {
		n.onTick()
	}
	n.gate.EndApply()
}

// closeForTick closes the gate for the writes of the tick in flight.
func (n *Node) closeForTick() {
	n.gate.close()
	n.nowMS.Store(max(n.nowMS.Load(), n.tickAt))
}

// Search executes one read-only ASAP search from peer p with the given
// terms, appending verified sources to dst and returning the (possibly
// reallocated) slice, the serve result, and the even epoch the answer
// was computed under. Admission control applies: the token bucket, then
// the in-flight cap with bounded queueing, then graceful drain — a shed
// request returns one of ErrThrottled, ErrOverloaded, ErrDraining
// without touching the store.
//
// The hot path is allocation-free in steady state: slot acquisition is a
// channel receive of a pooled scratch, the gate is two atomic stores,
// and SearchRO reuses the scratch and dst.
func (n *Node) Search(p overlay.NodeID, terms []content.Keyword, dst []overlay.NodeID) (core.ServeResult, []overlay.NodeID, uint64, error) {
	if n.draining.Load() {
		n.stats.ShedDrain.Add(1)
		return core.ServeResult{}, dst, 0, ErrDraining
	}
	if !n.bucket.take(time.Now()) {
		n.stats.ShedRate.Add(1)
		return core.ServeResult{}, dst, 0, ErrThrottled
	}
	var c servCtx
	select {
	case c = <-n.ctxs:
	default:
		if n.cfg.MaxQueue <= 0 {
			n.stats.ShedQueue.Add(1)
			return core.ServeResult{}, dst, 0, ErrOverloaded
		}
		if n.waiting.Add(1) > int64(n.cfg.MaxQueue) {
			n.waiting.Add(-1)
			n.stats.ShedQueue.Add(1)
			return core.ServeResult{}, dst, 0, ErrOverloaded
		}
		// Re-check drain after publishing the waiting claim: Drain
		// stores the flag before reading the counter, so (seq-cst) at
		// least one side sees the other — either we back out here or
		// Drain waits for this receive to complete.
		if n.draining.Load() {
			n.waiting.Add(-1)
			n.stats.ShedDrain.Add(1)
			return core.ServeResult{}, dst, 0, ErrDraining
		}
		c = <-n.ctxs
		n.waiting.Add(-1)
	}
	t0 := time.Now()
	epoch := n.gate.Enter(c.slot)
	now := n.nowMS.Load()
	res, dst := n.sch.SearchRO(p, terms, now, c.sc, dst)
	n.gate.Exit(c.slot)
	n.stats.Wall.Observe(time.Since(t0))
	n.stats.Served.Add(1)
	n.ctxs <- c
	return res, dst, epoch, nil
}

// Drain gracefully shuts the serving plane down: new requests shed with
// ErrDraining, queued requests finish, and Drain returns once every
// in-flight search has completed. Idempotent-safe for a single caller;
// concurrent Drain calls are not supported.
func (n *Node) Drain() {
	n.draining.Store(true)
	// Let already-queued waiters claim their slots before we start
	// collecting them, so none blocks forever against our receives.
	for i := 0; n.waiting.Load() > 0; i++ {
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	for i := 0; i < cap(n.ctxs); i++ {
		<-n.ctxs
	}
	close(n.drained)
}

// Draining reports whether Drain has been initiated.
func (n *Node) Draining() bool { return n.draining.Load() }

// tokenBucket is a mutex-protected token bucket refilled on demand from
// the wall clock. rate ≤ 0 disables it.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// take consumes one token if available.
func (b *tokenBucket) take(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
