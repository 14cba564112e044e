package core

import (
	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Hierarchical (super-peer) helpers, per the paper's footnote 3, in the
// mode the overlay selects (Scheme.hier). On a flat graph every node
// represents itself; all helpers degenerate to the single-node case.

// repr returns the node responsible for n's ads: n itself in flat mode or
// for super peers, n's parent super peer for leaves, -1 for a detached
// leaf.
func (s *Scheme) repr(n overlay.NodeID) overlay.NodeID {
	if !s.hier {
		return n
	}
	return s.sys.G.SuperOf(n)
}

// cacheEligible reports whether v participates in ad caching and
// processing — everyone in flat mode, super peers only in hierarchical
// mode.
func (s *Scheme) cacheEligible(v overlay.NodeID) bool {
	return !s.hier || s.sys.G.IsSuper(v)
}

// eligibleView returns n's live, cache-eligible neighbours as the
// overlay's incrementally maintained packed view — all live neighbours in
// flat mode, live super-peer neighbours in hierarchical mode. The view
// preserves exact adjacency order, so it is element-for-element identical
// to the old `Alive(nb) && cacheEligible(nb)` filtered scan and a walk's
// choice, an index into it, replays byte-identically. The slice is shared
// with the graph and valid until the next overlay mutation.
func (s *Scheme) eligibleView(n overlay.NodeID) []overlay.NodeID {
	if s.hier {
		return s.sys.G.LiveSuperNeighbors(n)
	}
	return s.sys.G.LiveNeighbors(n)
}

// eachGroupMember invokes fn for every live node whose content rp
// represents: rp itself plus, in hierarchical mode, its attached leaves.
func (s *Scheme) eachGroupMember(rp overlay.NodeID, fn func(overlay.NodeID) bool) {
	if !fn(rp) {
		return
	}
	if !s.hier {
		return
	}
	for _, leaf := range s.sys.G.LeavesOf(rp) {
		if !fn(leaf) {
			return
		}
	}
}

// groupMatches reports whether any node represented by rp shares a
// document matching all terms — the hierarchical confirmation ground
// truth.
func (s *Scheme) groupMatches(rp overlay.NodeID, terms []content.Keyword) bool {
	match := false
	s.eachGroupMember(rp, func(m overlay.NodeID) bool {
		if s.sys.NodeMatches(m, terms) {
			match = true
			return false
		}
		return true
	})
	return match
}

// groupInterests returns the union of interests across rp's group; a
// super peer caches on behalf of all its leaves.
func (s *Scheme) groupInterests(rp overlay.NodeID) content.ClassSet {
	if !s.hier {
		return s.sys.Interests(rp)
	}
	var set content.ClassSet
	s.eachGroupMember(rp, func(m overlay.NodeID) bool {
		set |= s.sys.Interests(m)
		return true
	})
	return set
}

// groupTopics returns T(a) for rp's aggregate ad: the classes of every
// document in the group.
func (s *Scheme) groupTopics(rp overlay.NodeID) content.ClassSet {
	var set content.ClassSet
	s.eachGroupMember(rp, func(m overlay.NodeID) bool {
		for _, d := range s.sys.Docs(m) {
			set = set.Add(s.sys.U.ClassOf(d))
		}
		return true
	})
	return set
}

// republishAndDeliver rebuilds rp's ad after its group's contents changed
// and delivers the update — a patch when rp had advertised before, a full
// ad otherwise.
func (s *Scheme) republishAndDeliver(t sim.Clock, rp overlay.NodeID) {
	if rp < 0 || !s.sys.G.Alive(rp) {
		return
	}
	oldSnap := s.publishedSnapshot(rp)
	snap := s.publish(rp)
	if snap == nil {
		return
	}
	if oldSnap == nil {
		s.deliver(t, snap, adFull, snap.topics)
		return
	}
	s.deliver(t, snap, adPatch, oldSnap.topics|snap.topics)
}
