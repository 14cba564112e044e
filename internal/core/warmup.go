package core

import (
	"math/bits"

	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// warmUp delivers Attach's full ads (t = -1) into the empty caches. Each
// source publishes once and no warm-up step reads a cache, so a node ends
// with exactly the last CacheCapacity ads, in ad order, that reached it and
// that it wants — what deliverAll leaves by storing all and evicting the
// excess. Batches are reached and booked as there; the wanted reach is
// transposed into per-ad recipient lists, a reverse pass keeps each node's
// last CacheCapacity and a forward pass inserts them: no find, no eviction.
func (s *Scheme) warmUp(ads []floodAd) {
	const t = sim.Clock(-1)
	k, seen := &s.flood, s.flood.seen[1:]
	type hit struct {
		v    uint32
		word uint64
	}
	var hits []hit
	lists := make([][]uint32, 0, len(ads)) // per ad: its wanting recipients, then its survivors
	for len(lists) < len(ads) {
		batch := ads[len(lists):min(len(ads), len(lists)+maxFloodBatch)]
		if s.cfg.Delivery == FLD {
			s.reach(t, batch)
		} else {
			batch = batch[:s.walks(t, batch)]
		}
		var byClass [content.NumClasses]uint64 // the batch's ads targeting each class
		for i, ad := range batch {
			if k.visits[i][0] != k.visits[i][1] {
				s.sys.Account(t, ad.kind.class(), ad.snap.wireBytes(ad.kind)*k.sent[i])
				s.obs.CountMsgN(int64(t), ad.kind.class(), k.sent[i])
			}
			seen[ad.snap.src] &^= 1 << i
			for c := ad.targeting; c != 0; c &= c - 1 {
				byClass[bits.TrailingZeros16(uint16(c))] |= 1 << i
			}
		}
		cnt, total := [maxFloodBatch]int{}, 0
		hits = hits[:0]
		for _, v := range k.order {
			var m uint64 // the batch's ads v wants
			if s.cacheEligible(v) {
				for c := s.groupInterests(v); c != 0; c &= c - 1 {
					m |= byClass[bits.TrailingZeros16(uint16(c))]
				}
			}
			if word := seen[v] & m; word != 0 {
				seen[v] = 0 // a node order lists twice is taken once
				hits, total = append(hits, hit{uint32(v), word}), total+bits.OnesCount64(word)
				for b := word; b != 0; b &= b - 1 {
					cnt[bits.TrailingZeros64(b)]++
				}
			}
		}
		arena := make([]uint32, total)
		for i := range batch {
			lists, arena = append(lists, arena[:0:cnt[i]]), arena[cnt[i]:]
		}
		recv := lists[len(lists)-len(batch):]
		for _, h := range hits {
			for b := h.word; b != 0; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				recv[i] = append(recv[i], h.v)
			}
		}
		k.reset()
	}
	fill := make([]int32, len(s.nodes))
	for j := len(lists) - 1; j >= 0; j-- {
		kept := lists[j][:0]
		for _, v := range lists[j] {
			if fill[v] < int32(s.cfg.CacheCapacity) {
				fill[v]++
				kept = append(kept, v)
			}
		}
		lists[j] = kept
	}
	s.beginApply()
	defer s.endApply()
	for j, kept := range lists {
		snap, h := ads[j].snap, &s.holders[ads[j].snap.src]
		if len(kept) > 0 {
			h.reserve(len(kept))
		}
		for _, v := range kept {
			ns := &s.nodes[v]
			h.put(overlay.NodeID(v), ns.insert(cachedAd{snap: snap, lastSeen: t}, s.cfg.CacheCapacity), snap.version)
			ns.minSeen = t // no clock is lower
		}
	}
}
