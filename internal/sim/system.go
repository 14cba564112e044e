package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// Clock is virtual time in milliseconds since trace start. Warm-up
// activity happens at negative times.
type Clock = int64

// sysRngStream is the PCG stream constant of the system-construction RNG
// (host placement, overlay generation, join wiring).
const sysRngStream = 0xe7037ed1a0b428db

// System is the dynamic state a scheme searches over: the overlay graph,
// per-node shared contents indexed by keyword both ways (a node's postings,
// a keyword's holders), node interests, and the run's ledger (Load). The
// replay goroutine is its only writer, state events and bookings alike.
type System struct {
	G    *overlay.Graph
	U    *content.Universe
	Tr   *trace.Trace
	Load *metrics.LoadAccount

	initialLive int

	interests []content.ClassSet
	docs      [][]content.DocID
	docPos    []map[content.DocID]int32
	kwIdx     []nodeIndex // node-major: node → keyword → postings
	holders   holderIndex // keyword-major: keyword → nodes with a posting

	// faults is the optional fault-injection plane; nil means a perfectly
	// reliable network (the paper's model).
	faults *faults.Plane

	// obs carries the optional heap gauge the replay samples once per
	// simulated second; nil samples nothing.
	obs *obs.Recorder

	// director handles trace.Directive events (scenario acts); nil
	// rejects them. freeRiders, when non-nil, marks nodes that query but
	// never publish or forward ads. Both are mutated only between replay
	// batches on the runner goroutine.
	director   Director
	freeRiders []bool

	rng *rand.Rand // runner-side mutations (join wiring) only
}

// Director applies one staged scenario act. The runner invokes it on the
// runner goroutine while applying state events, so implementations may
// mutate the system, the fault plane, and the overlay without locking.
type Director interface {
	Apply(t Clock, op int)
}

// nodeIndex is one node's keyword → postings index. The base postings are
// packed into System-wide arenas at construction (kws sorted ascending;
// keyword k's segment is post[off[k]:off[k+1]], live up to cnt[k]), which
// costs a handful of allocations per System instead of one map plus one
// slice per (node, keyword). Removals shrink cnt in place; additions
// refill freed base slots and otherwise overflow into extra, which stays
// nil for the many nodes whose contents never grow mid-run.
type nodeIndex struct {
	kws   []content.Keyword
	off   []int32
	cnt   []int32
	post  []content.DocID
	extra map[content.Keyword][]content.DocID
}

// base returns the live base postings of kw (nil when kw is not indexed).
func (ix *nodeIndex) base(kw content.Keyword) []content.DocID {
	if k, ok := slices.BinarySearch(ix.kws, kw); ok {
		return ix.post[ix.off[k] : ix.off[k]+ix.cnt[k]]
	}
	return nil
}

// add records that doc d contains kw and reports whether that is the
// node's first live posting of kw.
func (ix *nodeIndex) add(kw content.Keyword, d content.DocID) (first bool) {
	k, ok := slices.BinarySearch(ix.kws, kw)
	if ok {
		if c := ix.cnt[k]; c < ix.off[k+1]-ix.off[k] {
			ix.post[ix.off[k]+c] = d
			ix.cnt[k] = c + 1
			return c == 0 && len(ix.extra[kw]) == 0
		}
	}
	if ix.extra == nil {
		ix.extra = make(map[content.Keyword][]content.DocID, 4)
	}
	post := ix.extra[kw]
	ix.extra[kw] = append(post, d)
	return !ok && len(post) == 0 // a full base segment holds live postings
}

// remove erases doc d from kw's postings and reports whether it was the
// node's last live posting of kw.
func (ix *nodeIndex) remove(kw content.Keyword, d content.DocID) (last bool) {
	k, ok := slices.BinarySearch(ix.kws, kw)
	if ok {
		seg := ix.post[ix.off[k] : ix.off[k]+ix.cnt[k]]
		for i, x := range seg {
			if x == d {
				seg[i] = seg[len(seg)-1]
				ix.cnt[k]--
				return ix.cnt[k] == 0 && len(ix.extra[kw]) == 0
			}
		}
	}
	post := ix.extra[kw]
	for i, x := range post {
		if x == d {
			post[i] = post[len(post)-1]
			ix.extra[kw] = post[:len(post)-1]
			return len(post) == 1 && (!ok || ix.cnt[k] == 0)
		}
	}
	return false
}

// holderIndex is the keyword-major transpose of the per-node indexes:
// keyword → the nodes holding at least one live posting of it, whether or
// not they are alive in the overlay. It has nodeIndex's shape over the dense
// keyword-id range [0, len(cnt)): keyword k's base segment is
// arena[off[k]:off[k+1]], live up to cnt[k] and exactly full at
// construction. Losing a holder shrinks cnt in place; a new holder refills a
// freed base slot and otherwise (or for a keyword past the range) overflows
// into extra, which stays nil until a node gains a keyword mid-run. It
// changes only when a node's posting count for a keyword crosses 0 ↔ 1.
type holderIndex struct {
	off   []int32
	cnt   []int32
	arena []overlay.NodeID
	extra map[content.Keyword][]overlay.NodeID
}

// of returns kw's holders as a base and an overflow list, either possibly
// empty.
func (h *holderIndex) of(kw content.Keyword) (base, extra []overlay.NodeID) {
	if int(kw) < len(h.cnt) {
		base = h.arena[h.off[kw] : h.off[kw]+h.cnt[kw]]
	}
	return base, h.extra[kw]
}

// add records n as a holder of kw; the caller guarantees it was not one.
func (h *holderIndex) add(kw content.Keyword, n overlay.NodeID) {
	if int(kw) < len(h.cnt) {
		if c := h.cnt[kw]; c < h.off[kw+1]-h.off[kw] {
			h.arena[h.off[kw]+c] = n
			h.cnt[kw] = c + 1
			return
		}
	}
	if h.extra == nil {
		h.extra = make(map[content.Keyword][]overlay.NodeID)
	}
	h.extra[kw] = append(h.extra[kw], n)
}

// remove erases n from kw's holders.
func (h *holderIndex) remove(kw content.Keyword, n overlay.NodeID) {
	base, extra := h.of(kw)
	for i, x := range base {
		if x == n {
			base[i] = base[len(base)-1]
			h.cnt[kw]--
			return
		}
	}
	for i, x := range extra {
		if x == n {
			extra[i] = extra[len(extra)-1]
			h.extra[kw] = extra[:len(extra)-1]
			return
		}
	}
}

// NewSystem builds the replay state for one (universe, trace, topology)
// combination: it places every trace participant on a random physical
// host, generates the overlay with the initial participants live, and
// loads each node's starting contents from its universe peer.
func NewSystem(u *content.Universe, tr *trace.Trace, kind overlay.Kind, net *netmodel.Network, seed uint64) *System {
	rng := rand.New(rand.NewPCG(seed, sysRngStream))
	hosts := net.RandomNodes(len(tr.Peers), rng)
	g := overlay.New(kind, net, hosts, tr.InitialLive, rng)
	return newSystemState(u, tr, g, rng)
}

// NewSystemWithGraph builds replay state over a caller-constructed
// overlay — the entry point for topologies outside the paper's three
// (e.g. the super-peer hierarchy of footnote 3). The graph must cover one
// node per trace peer with the initial participants already live.
func NewSystemWithGraph(u *content.Universe, tr *trace.Trace, g *overlay.Graph) *System {
	if g.N() != len(tr.Peers) {
		panic(fmt.Sprintf("sim: graph has %d nodes, trace has %d peers", g.N(), len(tr.Peers)))
	}
	return newSystemState(u, tr, g, rand.New(rand.NewPCG(uint64(g.N()), sysRngStream)))
}

// TopoProto is a reusable topology prototype: one generated overlay plus
// the replay RNG state captured right after generation. Overlay
// generation dominates per-run setup cost, so experiment drivers generate
// each topology once and stamp out per-run copies with NewSystem. Because
// the captured RNG resumes exactly where NewSystem's own would, the
// copies replay bit-for-bit like a System built from scratch with the
// same seed (join wiring draws the same numbers).
type TopoProto struct {
	g        *overlay.Graph
	rngState []byte
}

// NewTopoProto generates the overlay for one (topology, network, peer
// population, seed) combination, mirroring NewSystem's setup sequence.
func NewTopoProto(kind overlay.Kind, net *netmodel.Network, nPeers, initialLive int, seed uint64) *TopoProto {
	src := rand.NewPCG(seed, sysRngStream)
	rng := rand.New(src)
	hosts := net.RandomNodes(nPeers, rng)
	g := overlay.New(kind, net, hosts, initialLive, rng)
	state, err := src.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("sim: snapshotting rng: %v", err))
	}
	return &TopoProto{g: g, rngState: state}
}

// NewSystem stamps out one independent replay state over a clone of the
// prototype's overlay. The trace must cover exactly the peer count the
// prototype was generated for. Safe to call concurrently: each call
// clones the master graph and restores a private RNG.
func (p *TopoProto) NewSystem(u *content.Universe, tr *trace.Trace) *System {
	if p.g.N() != len(tr.Peers) {
		panic(fmt.Sprintf("sim: prototype has %d nodes, trace has %d peers", p.g.N(), len(tr.Peers)))
	}
	src := &rand.PCG{}
	if err := src.UnmarshalBinary(p.rngState); err != nil {
		panic(fmt.Sprintf("sim: restoring rng: %v", err))
	}
	return newSystemState(u, tr, p.g.Clone(), rand.New(src))
}

// newSystemState loads per-node content state for tr's peers over a ready
// overlay; the ledger spans the trace.
func newSystemState(u *content.Universe, tr *trace.Trace, g *overlay.Graph, rng *rand.Rand) *System {
	n := len(tr.Peers)
	s := &System{
		G:           g,
		U:           u,
		Tr:          tr,
		Load:        metrics.NewLoadAccount(int(tr.Span()/1000) + 2),
		initialLive: tr.InitialLive,
		interests:   make([]content.ClassSet, n),
		docs:        make([][]content.DocID, n),
		docPos:      make([]map[content.DocID]int32, n),
		kwIdx:       make([]nodeIndex, n),
		rng:         rng,
	}
	// Load contents and count keyword occurrences.
	totalPost := 0
	for i := 0; i < n; i++ {
		peer := u.Peer(tr.Peers[i])
		s.interests[i] = peer.Interests
		s.docPos[i] = make(map[content.DocID]int32, len(peer.Docs))
		docs := make([]content.DocID, 0, len(peer.Docs))
		for _, d := range peer.Docs {
			if _, dup := s.docPos[i][d]; dup {
				continue
			}
			s.docPos[i][d] = int32(len(docs))
			docs = append(docs, d)
			totalPost += len(u.Keywords(d))
		}
		s.docs[i] = docs
	}
	s.indexContents(totalPost)
	return s
}

// indexContents builds both keyword indexes — every node's postings and
// their transpose, every keyword's holders — over exactly sized shared
// arenas. totalPost is the number of keyword occurrences in all contents.
func (s *System) indexContents(totalPost int) {
	u, n := s.U, len(s.docs)
	// Pass 1: pack every occurrence as keyword<<32 | doc into one transient
	// arena, node after node, and sort each node's run: equal keywords become
	// adjacent with their docs ascending, so one walk counts the distinct
	// (node, keyword) pairs and a second fills every arena sequentially.
	packed := make([]uint64, 0, totalPost)
	ends := make([]int, n) // node i's run is packed[ends[i-1]:ends[i]]
	pairs, maxKw := 0, uint64(0)
	for i := 0; i < n; i++ {
		start := len(packed)
		for _, d := range s.docs[i] {
			for _, kw := range u.Keywords(d) {
				packed = append(packed, uint64(kw)<<32|uint64(d))
			}
		}
		run := packed[start:]
		slices.Sort(run)
		for j, p := range run {
			if j == 0 || p>>32 != run[j-1]>>32 {
				pairs++
			}
		}
		if len(run) > 0 {
			maxKw = max(maxKw, run[len(run)-1]>>32)
		}
		ends[i] = len(packed)
	}
	// Pass 2: fill the node-major arenas, sized exactly — one keyword, one
	// count and one offset per pair, plus a closing offset per node — and
	// count each keyword's holders. A segment's cnt starts at its full length.
	postArena := make([]content.DocID, totalPost)
	kwArena := make([]content.Keyword, pairs)
	cntArena := make([]int32, pairs)
	offArena := make([]int32, pairs+n)
	h := &s.holders
	h.cnt = make([]int32, maxKw+1)
	start, kwBase := 0, 0
	for i := 0; i < n; i++ {
		run := packed[start:ends[i]]
		off := offArena[kwBase+i:]
		nk := 0
		for j, p := range run {
			if kw := content.Keyword(p >> 32); j == 0 || kw != kwArena[kwBase+nk-1] {
				kwArena[kwBase+nk] = kw
				off[nk] = int32(j)
				nk++
				h.cnt[kw]++
			}
			postArena[start+j] = content.DocID(p)
		}
		off[nk] = int32(len(run))
		ix := &s.kwIdx[i]
		ix.kws = kwArena[kwBase : kwBase+nk : kwBase+nk]
		ix.off = off[: nk+1 : nk+1]
		ix.cnt = cntArena[kwBase : kwBase+nk : kwBase+nk]
		ix.post = postArena[start:ends[i]:ends[i]]
		for k := range ix.cnt {
			ix.cnt[k] = off[k+1] - off[k]
		}
		kwBase += nk
		start = ends[i]
	}
	// Pass 3: transpose. The holder counts become segment offsets, then each
	// node appends itself to the segment of every keyword it indexes; cnt is
	// the fill cursor and ends back at each segment's full length.
	h.off = make([]int32, len(h.cnt)+1)
	for kw, c := range h.cnt {
		h.off[kw+1] = h.off[kw] + c
	}
	clear(h.cnt)
	h.arena = make([]overlay.NodeID, pairs)
	for i := range s.kwIdx {
		for _, kw := range s.kwIdx[i].kws {
			h.arena[h.off[kw]+h.cnt[kw]] = overlay.NodeID(i)
			h.cnt[kw]++
		}
	}
}

// NumNodes returns the total node count (live + reserves).
func (s *System) NumNodes() int { return s.G.N() }

// InitialLive returns the number of nodes live at time zero.
func (s *System) InitialLive() int { return s.initialLive }

// Interests returns node n's interest set I(n).
func (s *System) Interests(n overlay.NodeID) content.ClassSet { return s.interests[n] }

// Docs returns node n's current shared documents as a shared view.
func (s *System) Docs(n overlay.NodeID) []content.DocID { return s.docs[n] }

// Latency returns the physical latency between two overlay nodes in ms.
func (s *System) Latency(a, b overlay.NodeID) int { return s.G.Latency(a, b) }

// SetFaults installs a fault-injection plane. Call before Attach/replay;
// nil (the default) models the paper's perfectly reliable network.
func (s *System) SetFaults(p *faults.Plane) { s.faults = p }

// Faults returns the installed fault plane (nil-safe to use directly).
func (s *System) Faults() *faults.Plane { return s.faults }

// SetObs installs the recorder whose heap gauge the replay samples. Call
// before Attach/replay; nil (the default) samples nothing.
func (s *System) SetObs(r *obs.Recorder) { s.obs = r }

// SetDirector installs the handler for trace.Directive events.
func (s *System) SetDirector(d Director) { s.director = d }

// SetInterests replaces node n's interest set. Schemes read interests
// live (no caching), so the change takes effect for every subsequent
// delivery, caching decision, and ads request.
func (s *System) SetInterests(n overlay.NodeID, set content.ClassSet) { s.interests[n] = set }

// SetFreeRiders installs (or, with nil, clears) the free-rider mask:
// marked nodes keep searching and caching but stop publishing and
// forwarding ads until the mask is lifted.
func (s *System) SetFreeRiders(mask []bool) { s.freeRiders = mask }

// FreeRider reports whether node n is currently free-riding.
func (s *System) FreeRider(n overlay.NodeID) bool {
	return s.freeRiders != nil && s.freeRiders[n]
}

// Deliver is the per-message choke point: it books one copy of class c
// carrying bytes, sent at virtual time t, and reports whether the message
// identified by (key, seq) on the src→dst link survives the network. A
// dropped message was still sent and still cost bandwidth, so the copy is
// booked either way. Cascades that book a message's bytes apart from it
// pass bytes = 0 and book the bytes with Load.Send. Always true without a
// fault plane.
func (s *System) Deliver(t Clock, c metrics.MsgClass, bytes int, src, dst overlay.NodeID, key uint64, seq uint32) bool {
	s.Load.Send(t, c, bytes, 1)
	return s.faults == nil || !s.Lost(t, c, src, dst, key, seq)
}

// Lost is Deliver's verdict alone — the drop is booked, the sent copy is
// not — for cascades that book their copies in bulk (the baseline flood).
func (s *System) Lost(t Clock, c metrics.MsgClass, src, dst overlay.NodeID, key uint64, seq uint32) bool {
	lost, parted := s.Verdict(c, src, dst, key, seq)
	if lost {
		s.Load.Count(t, metrics.CDrop)
	}
	if parted {
		s.Load.Count(t, metrics.CPartDrop)
	}
	return lost
}

// Verdict is Lost without the booking: whether the copy is lost, and whether
// a partition lost it. It writes nothing, so core's ad deliveries, whose
// warm-up reaches run on several goroutines, count their drops and book them
// through BookDrops. Partition verdicts are pure group-membership lookups —
// they consume no hash stream, so the Drop decision sees exactly the inputs
// it would see with no partition engaged (see faults.Plane.group).
func (s *System) Verdict(c metrics.MsgClass, src, dst overlay.NodeID, key uint64, seq uint32) (lost, parted bool) {
	parted = s.faults.Partitioned(src, dst)
	return parted || s.faults.Drop(c, src, dst, key, seq), parted
}

// BookDrops books drops lost copies at virtual time t, partDrops of them
// lost to a partition.
func (s *System) BookDrops(t Clock, drops, partDrops int) {
	s.Load.CountN(t, metrics.CDrop, drops)
	s.Load.CountN(t, metrics.CPartDrop, partDrops)
}

// JitterMS returns the message's extra one-way latency under the fault
// plane (0 without one).
func (s *System) JitterMS(c metrics.MsgClass, src, dst overlay.NodeID, key uint64, seq uint32) Clock {
	if s.faults == nil {
		return 0
	}
	return s.faults.Jitter(c, src, dst, key, seq)
}

// NodeMatches reports whether node n shares at least one document
// containing every query term — the ground truth behind ASAP content
// confirmations and, for the candidates RarestHolders leaves, behind
// baseline replies. It consults the node's keyword index, scanning only
// the postings of the term n holds fewest documents of.
func (s *System) NodeMatches(n overlay.NodeID, terms []content.Keyword) bool {
	if len(terms) == 0 {
		return false
	}
	ix := &s.kwIdx[n]
	var sBase, sExtra []content.DocID
	shortest := -1
	for _, t := range terms {
		base := ix.base(t)
		var extra []content.DocID
		if ix.extra != nil {
			extra = ix.extra[t]
		}
		plen := len(base) + len(extra)
		if plen == 0 {
			return false
		}
		if shortest < 0 || plen < shortest {
			shortest, sBase, sExtra = plen, base, extra
		}
	}
	if len(terms) == 1 {
		return true
	}
	for _, d := range sBase {
		if s.U.DocMatches(d, terms) {
			return true
		}
	}
	for _, d := range sExtra {
		if s.U.DocMatches(d, terms) {
			return true
		}
	}
	return false
}

// RarestHolders returns, as a base and an overflow list, the nodes
// holding at least one document with the query term that fewest nodes hold:
// a superset of the nodes NodeMatches accepts for terms, dead nodes
// included, so a cascade resolves its query once and tests only these.
// Both lists are empty when a term is held nowhere (or is outside the
// vocabulary) and for an empty query. The lists are shared views, valid
// until the next content event.
func (s *System) RarestHolders(terms []content.Keyword) (base, extra []overlay.NodeID) {
	for i, t := range terms {
		b, x := s.holders.of(t)
		if len(b)+len(x) == 0 {
			return nil, nil
		}
		if i == 0 || len(b)+len(x) < len(base)+len(extra) {
			base, extra = b, x
		}
	}
	return base, extra
}

// addDoc inserts d into node n's contents and keyword index, and n into
// the holders of every keyword it did not index before.
func (s *System) addDoc(n overlay.NodeID, d content.DocID) {
	if _, dup := s.docPos[n][d]; dup {
		return
	}
	s.docPos[n][d] = int32(len(s.docs[n]))
	s.docs[n] = append(s.docs[n], d)
	for _, kw := range s.U.Keywords(d) {
		if s.kwIdx[n].add(kw, d) {
			s.holders.add(kw, n)
		}
	}
}

// removeDoc removes d from node n's contents and keyword index, and n from
// the holders of every keyword it no longer indexes.
func (s *System) removeDoc(n overlay.NodeID, d content.DocID) {
	pos, ok := s.docPos[n][d]
	if !ok {
		return
	}
	docs := s.docs[n]
	last := len(docs) - 1
	docs[pos] = docs[last]
	s.docPos[n][docs[pos]] = pos
	s.docs[n] = docs[:last]
	delete(s.docPos[n], d)
	for _, kw := range s.U.Keywords(d) {
		if s.kwIdx[n].remove(kw, d) {
			s.holders.remove(kw, n)
		}
	}
}

// ApplyEvent applies a state-mutating trace event; Query events are
// rejected (the runner dispatches them to the scheme instead).
func (s *System) ApplyEvent(ev *trace.Event) {
	switch ev.Kind {
	case trace.ContentAdd:
		s.addDoc(ev.Node, ev.Doc)
	case trace.ContentRemove:
		s.removeDoc(ev.Node, ev.Doc)
	case trace.Join:
		s.G.Join(ev.Node, s.rng)
	case trace.Leave:
		s.G.Leave(ev.Node)
	case trace.Directive:
		if s.director == nil {
			panic(fmt.Sprintf("sim: Directive event %d with no director installed", ev.Doc))
		}
		s.director.Apply(ev.Time, int(ev.Doc))
	default:
		panic(fmt.Sprintf("sim: ApplyEvent on %v event", ev.Kind))
	}
}
