package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Scheme is the ASAP search algorithm as a pluggable sim.Scheme. Create
// one per run with New; a Scheme is bound to a single system by Attach.
type Scheme struct {
	cfg   Config
	sys   *sim.System
	nodes []nodeState

	// holders is the ads-cache index, source-major: holders[src] maps each
	// node caching src's ad to the entry's index in that node's slab (see
	// adindex.go). It is the only index — nodes keep no table of their own.
	holders []holderTab

	// obs caches the system's observability recorder (nil when off) so
	// search/delivery hot paths skip the System indirection.
	obs *obs.Recorder

	// wheel[slot] lists nodes whose refresh ad fires at seconds ≡ slot
	// (mod RefreshPeriodSec), spreading refresh traffic evenly.
	wheel [][]overlay.NodeID

	// Ad-delivery state. The buffers amortise the per-delivery queue and
	// neighbour-list allocations across a run.
	rng    *rand.Rand
	flood  floodScratch
	adQ    []floodAd // the ads of a tick, or the one ad of a publish
	wlkBuf []overlay.NodeID

	// fence, while set, runs once just before the next write section opens
	// (see TickUnder).
	fence func()

	// slots is the global signature index (see adindex.go): every published
	// snapshot's filter is bit-sliced into the matrix of its geometry, so
	// searches match cached ads by word-parallel bit tests. Written only by
	// publishWith.
	slots adSlots

	// patchBuf is the reusable diff buffer of publishWith: one publish per
	// content change all replay long reuses its position slices instead of
	// allocating a fresh patch.
	patchBuf bloom.Patch

	// applyVer is the delivery-plane seqlock: odd while a write section (a
	// delivery batch's apply pass, a publish, a graceful-leave eviction) is
	// open; a batch's reach runs outside it. The replay
	// goroutine opens every section and runs every Search, so the two never
	// overlap; the version exists for the serving plane, whose readers
	// assert through checkStable that no section is open while they read.
	// One version bump per section — not per visited node — keeps the cost
	// off the delivery hot loop entirely.
	applyVer atomic.Uint32

	// scratch is the working set of Search and the join-time ads pull; see
	// searchScratch.
	scratch searchScratch
}

// The runner coalesces same-second same-node content runs for schemes that
// opt in; Scheme does (ContentChangedBatch).
var _ sim.ContentBatcher = (*Scheme)(nil)

// New returns an ASAP scheme with the given configuration. It panics on an
// invalid configuration.
func New(cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Scheme{cfg: cfg, scratch: newSearchScratch()}
}

// Name implements sim.Scheme: "asap-fld", "asap-rw" or "asap-gsa".
func (s *Scheme) Name() string { return fmt.Sprintf("asap-%s", s.cfg.Delivery) }

// Config returns the scheme's configuration.
func (s *Scheme) Config() Config { return s.cfg }

// LoadMask implements sim.Scheme: ASAP's system load counts ad deliveries
// plus search-related confirmation and ads-request traffic (§V-B).
func (s *Scheme) LoadMask() metrics.ClassMask { return metrics.ASAPLoadMask }

// Attach implements sim.Scheme: it initialises per-node state and performs
// the warm-up ad distribution — every initially-live sharer publishes and
// delivers its full ad before the trace starts (accounted as warm-up, not
// system load; the paper measures load on a warmed-up system).
func (s *Scheme) Attach(sys *sim.System) {
	if s.cfg.Hierarchical && sys.G.Kind() != overlay.SuperPeerKind {
		panic("core: Hierarchical config requires an overlay.SuperPeerKind graph")
	}
	s.sys = sys
	s.obs = sys.Obs()
	n := sys.NumNodes()
	s.nodes = make([]nodeState, n)
	s.holders = make([]holderTab, n)
	s.rng = rand.New(rand.NewPCG(s.cfg.Seed, 0x5851f42d4c957f2d))
	s.flood.seen = make([]uint64, n+1) // by slot key: node+1
	s.flood.frontier = make([]uint64, n)
	s.flood.next = make([]uint64, n)
	s.flood.order = make([]overlay.NodeID, 0, n+maxFloodBatch)
	if s.cfg.RefreshPeriodSec > 0 {
		s.wheel = make([][]overlay.NodeID, s.cfg.RefreshPeriodSec)
	}

	for v := 0; v < n; v++ {
		ns := &s.nodes[v]
		ns.minSeen = maxClock
		ns.dirty = true
		for _, d := range sys.Docs(overlay.NodeID(v)) {
			ns.classCnt[sys.U.ClassOf(d)]++
		}
		if s.wheel != nil {
			slot := v % s.cfg.RefreshPeriodSec
			s.wheel[slot] = append(s.wheel[slot], overlay.NodeID(v))
		}
	}
	// Warm-up: every initially-live representative publishes a full ad.
	// Filter construction dominates the publish cost and is a pure read of
	// immutable system state, so the builds fan out across GOMAXPROCS
	// workers; publication and delivery stay serial on this thread, in
	// node order (publications first: each touches only its own node's ad,
	// so floods can share traversals), replaying the all-serial warm-up.
	reps := make([]overlay.NodeID, 0, sys.InitialLive())
	for v := 0; v < sys.InitialLive(); v++ {
		node := overlay.NodeID(v)
		if s.repr(node) != node {
			continue // leaves are represented by their super peer
		}
		reps = append(reps, node)
	}
	filters := s.buildFiltersParallel(reps)
	ads := make([]floodAd, 0, len(reps))
	for i, node := range reps {
		if snap := s.publishWith(node, filters[i]); snap != nil {
			ads = append(ads, floodAd{snap, adFull, snap.topics})
		}
	}
	s.deliverAll(-1, ads)
}

// beginApply opens a delivery-path write section: a pending fence runs, then
// the version goes odd. There is one writer, so a plain load-then-store is
// sufficient — no competing writer can lose an increment.
func (s *Scheme) beginApply() {
	if f := s.fence; f != nil {
		s.fence = nil
		f()
	}
	s.applyVer.Store(s.applyVer.Load() + 1)
}

// endApply closes a delivery-path write section: the version returns to
// even, publishing the new state.
func (s *Scheme) endApply() {
	s.applyVer.Store(s.applyVer.Load() + 1)
}

// checkStable validates the seqlock contract from a serving reader: it must
// never observe an open delivery write section. An odd version here means
// the serving gate let a reader in during an apply — state corruption, not
// a recoverable condition — so it panics.
func (s *Scheme) checkStable() {
	if s.applyVer.Load()&1 != 0 {
		panic("core: delivery write overlapped a read-only search (serving gate breached)")
	}
}

// buildFiltersParallel builds the given nodes' content filters across
// GOMAXPROCS workers. Each filter is built whole by one worker from
// deterministic per-node state, so the result is independent of how nodes
// land on workers — the merge is simply indexed assignment. Below two
// workers (or two nodes) it builds inline: on a single-CPU host the
// fan-out would only add scheduling overhead.
func (s *Scheme) buildFiltersParallel(nodes []overlay.NodeID) []*bloom.Filter {
	filters := make([]*bloom.Filter, len(nodes))
	workers := min(runtime.GOMAXPROCS(0), len(nodes))
	if workers <= 1 {
		for i, n := range nodes {
			filters[i] = s.buildFilter(n)
		}
		return filters
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(nodes) {
					return
				}
				filters[i] = s.buildFilter(nodes[i])
			}
		}()
	}
	wg.Wait()
	return filters
}

// publish materialises node n's current ad snapshot and installs it as the
// node's published ad. It returns nil when the node has nothing to
// advertise and never had ("free-riders have a null content filter, thus
// having nothing to advertise"), or when nothing changed since the last
// publication.
func (s *Scheme) publish(n overlay.NodeID) *adSnapshot {
	return s.publishWith(n, nil)
}

// publishWith is publish with an optionally prebuilt content filter
// (Attach's parallel warm-up builds them ahead of the serial
// publication loop); prebuilt == nil builds the filter inline.
func (s *Scheme) publishWith(n overlay.NodeID, prebuilt *bloom.Filter) *adSnapshot {
	ns := &s.nodes[n]
	// Scenario free riders publish nothing while masked. The dirty bit is
	// deliberately left untouched, so content changes accumulated during
	// the mask republish at the first reconcile after it lifts.
	if s.sys.FreeRider(n) {
		return nil
	}
	// Flat nodes see every content change as an event, so an unchanged
	// dirty bit proves the rebuilt filter and topics would equal the
	// published ones and publish would return nil — skip the rebuild.
	// Hierarchical groups drift silently (leaf departures are not evented
	// to the super peer) and must always reconcile.
	if !s.cfg.Hierarchical && !ns.dirty {
		return nil
	}
	f := prebuilt
	if f == nil {
		f = s.buildFilter(n)
	}
	topics := ns.topicsFromCounts()
	if s.cfg.Hierarchical {
		topics = s.groupTopics(n)
	}

	// The published-snapshot swap is a write section like any delivery.
	s.beginApply()
	defer s.endApply()
	ns.dirty = false
	old := ns.published
	if old == nil && f.Empty() {
		return nil
	}
	version := uint16(1)
	patchWire := 0
	if old != nil {
		if old.filter.Bits() == f.Bits() {
			old.filter.AppendDiff(f, &s.patchBuf)
			if s.patchBuf.Empty() && old.topics == topics {
				return nil // no index change worth advertising
			}
			patchWire = s.patchBuf.WireSize()
		} else {
			// Variable sizing crossed a pool boundary: no patch exists
			// across geometries, so the update ships as a full ad.
			patchWire = f.WireSize()
		}
		version = old.version + 1
	}
	snap := &adSnapshot{
		src:       n,
		version:   version,
		topics:    topics,
		filter:    f,
		fullWire:  f.WireSize(),
		patchWire: patchWire,
	}
	s.slots.register(snap)
	ns.published = snap
	return snap
}

// buildFilter assembles node n's content filter from its current
// documents under the configured sizing strategy.
func (s *Scheme) buildFilter(n overlay.NodeID) *bloom.Filter {
	if !s.cfg.VariableFilters {
		f := bloom.NewDefault()
		s.eachGroupMember(n, func(m overlay.NodeID) bool {
			for _, d := range s.sys.Docs(m) {
				for _, kw := range s.sys.U.Keywords(d) {
					f.AddKey(uint64(kw))
				}
			}
			return true
		})
		return f
	}
	// Variable sizing needs |K_p| first: collect the distinct keyword set,
	// then size the filter from the shared pool.
	seen := make(map[content.Keyword]struct{}, 64)
	s.eachGroupMember(n, func(m overlay.NodeID) bool {
		for _, d := range s.sys.Docs(m) {
			for _, kw := range s.sys.U.Keywords(d) {
				seen[kw] = struct{}{}
			}
		}
		return true
	})
	f := bloom.NewSized(len(seen))
	for kw := range seen {
		f.AddKey(uint64(kw))
	}
	return f
}

// publishedSnapshot returns node n's current published ad (nil if none).
func (s *Scheme) publishedSnapshot(n overlay.NodeID) *adSnapshot {
	return s.nodes[n].published
}

// ContentChanged implements sim.Scheme: the node republishes and delivers
// a patch ad (or its first full ad, if it previously advertised nothing).
// Patch targeting uses the union of old and new topics so removals reach
// the caches that hold the ad.
func (s *Scheme) ContentChanged(t sim.Clock, n overlay.NodeID, d content.DocID, added bool) {
	ns := &s.nodes[n]
	ns.dirty = true
	cls := s.sys.U.ClassOf(d)
	if added {
		ns.classCnt[cls]++
	} else if ns.classCnt[cls] > 0 {
		ns.classCnt[cls]--
	}
	if !s.sys.G.Alive(n) {
		return
	}
	s.republishAndDeliver(t, s.repr(n))
}

// ContentChangedBatch implements sim.ContentBatcher: a same-second run of
// content changes at one node folds into a single republish — the document
// counts advance through the whole run first, then one patch ad (carrying
// the net filter change) is published and delivered at the run's last
// event time. No other node can observe the intermediate states: the
// runner coalesces only consecutive events with no query, tick, or other
// state event between them.
func (s *Scheme) ContentChangedBatch(t sim.Clock, n overlay.NodeID, docs []content.DocID, added []bool) {
	ns := &s.nodes[n]
	ns.dirty = true
	for i, d := range docs {
		cls := s.sys.U.ClassOf(d)
		if added[i] {
			ns.classCnt[cls]++
		} else if ns.classCnt[cls] > 0 {
			ns.classCnt[cls]--
		}
	}
	if !s.sys.G.Alive(n) {
		return
	}
	s.republishAndDeliver(t, s.repr(n))
}

// NodeJoined implements sim.Scheme: the joiner advertises a full ad and
// pulls interesting ads from its neighbourhood — "the same ads requesting
// process as the one when a brand new node joins" (§III-C).
func (s *Scheme) NodeJoined(t sim.Clock, n overlay.NodeID) {
	if s.cfg.Hierarchical {
		// The joiner attaches as a leaf; its contents fold into the parent
		// super peer's aggregate ad. Leaves neither cache nor pull ads.
		s.republishAndDeliver(t, s.repr(n))
		return
	}
	if snap := s.publish(n); snap != nil {
		s.deliver(t, snap, adFull, snap.topics)
	}
	// The join pull gets its own drop stream, folded apart from any query
	// the same node issues in the same millisecond.
	s.adsRequest(t, n, s.getScratch(faults.Fold(faults.Key(int64(t), n), 1)), nil)
}

// NodeLeaving implements sim.GracefulLeaver: when the fault plane models
// graceful departures, a leaving node tells its neighbours goodbye while
// its links still exist, and every neighbour the goodbye reaches evicts
// the leaver's ad immediately instead of waiting for a failed
// confirmation or staleness expiry. Without a graceful-leave plane this is
// a no-op — departures stay ungraceful, the paper's churn model.
func (s *Scheme) NodeLeaving(t sim.Clock, n overlay.NodeID) {
	if !s.sys.Faults().GracefulLeave() || s.repr(n) != n {
		return
	}
	gkey := faults.Fold(faults.Key(int64(t), n), 2)
	s.beginApply()
	defer s.endApply()
	for _, nb := range s.eligibleView(n) {
		if !s.sys.Deliver(t, metrics.MControl, sim.HeaderBytes, n, nb, gkey, 0) {
			continue // goodbye lost: nb finds out the hard way
		}
		s.drop(nb, n)
	}
}

// NodeLeft implements sim.Scheme: departures are ungraceful; the node's
// ads elsewhere go stale until refresh-based expiry (or until a failed
// confirmation drops them). In hierarchical mode a departing super peer's
// leaves are re-homed by the overlay; their new parents republish so the
// migrated contents become findable again.
func (s *Scheme) NodeLeft(t sim.Clock, n overlay.NodeID) {
	if !s.cfg.Hierarchical {
		return
	}
	seen := map[overlay.NodeID]bool{}
	for _, leaf := range s.sys.G.TakeRehomed() {
		rp := s.repr(leaf)
		if rp >= 0 && !seen[rp] {
			seen[rp] = true
			s.republishAndDeliver(t, rp)
		}
	}
}

// TickUnder is Tick with a fence: fence runs exactly once, just before the
// tick's first write section opens — an empty one at the end if the tick
// writes nothing. Before the fence the tick only reads scheme and system
// state and writes the delivery scratch, the rng and the fault plane's drop
// tallies, none of which a read-only search touches; so the serving plane
// closes its gate in fence and keeps readers running through the first
// batch's reach.
func (s *Scheme) TickUnder(t sim.Clock, fence func()) {
	s.fence = fence
	s.Tick(t)
	if s.fence != nil {
		s.beginApply()
		s.endApply()
	}
}

// Tick implements sim.Scheme: fires the refresh wheel slot due this
// second, delivering the slot's ads in batches of up to maxFloodBatch.
func (s *Scheme) Tick(t sim.Clock) {
	if s.wheel == nil {
		return
	}
	slot := int(t/1000) % s.cfg.RefreshPeriodSec
	ads := s.adQ[:0]
	for _, n := range s.wheel[slot] {
		// Scenario free riders send no ads at all: publish gates new
		// publications, and this also stops refreshes of snapshots published
		// before the mask engaged.
		if !s.sys.G.Alive(n) || s.repr(n) != n || s.sys.FreeRider(n) {
			continue
		}
		// Reconcile first: hierarchical groups drift when leaves depart
		// silently (flat nodes never drift here — every content change is
		// evented — so publish returns nil and a plain refresh goes out).
		kind := adPatch
		snap := s.publish(n)
		if snap == nil {
			if snap = s.publishedSnapshot(n); snap == nil {
				continue
			}
			kind = adRefresh
		}
		ads = append(ads, floodAd{snap, kind, snap.topics})
	}
	// Publishing the whole slot ahead of its deliveries changes nothing: a
	// publication touches only its own node's ad, which no other source's
	// delivery reads.
	s.deliverAll(t, ads)
	s.adQ = ads[:0]
}

// HasCachedAd reports whether node p currently caches an ad published by
// src (diagnostics).
func (s *Scheme) HasCachedAd(p, src overlay.NodeID) bool {
	_, held := s.holders[src].get(p)
	return held
}

// CacheSize returns node n's current ads-cache population (diagnostics).
func (s *Scheme) CacheSize(n overlay.NodeID) int { return len(s.nodes[n].live()) }
