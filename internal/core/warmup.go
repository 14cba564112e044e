package core

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"asap/internal/content"
	"asap/internal/overlay"
)

// warmUp delivers Attach's full ads (t = -1) into the empty caches. Each
// source publishes once and no warm-up step reads a cache, so a node ends
// with exactly the last CacheCapacity ads, in ad order, that reached it and
// that it wants — what deliverAll leaves by storing all and evicting the
// excess. Ads are reached in deliverAll's batches and each batch's wanted
// reach is transposed into per-ad recipient lists; a reverse pass keeps each
// node's last CacheCapacity and a forward pass inserts them: no find, no
// eviction.
//
// Reaching and transposing read only immutable state and the worker's own
// scratch, so they fan out across GOMAXPROCS workers (worker 0 is the
// scheme's own scratch; at GOMAXPROCS=1 it is the only one). A flood batch
// is one job. A walk's trajectory is a function of its delivery's identity,
// so each ad is walked alone into its worker's scratch and yields its
// stretch of first visits; the batches are then cut from the stretches
// exactly as walks cuts them, and each batch is rebuilt in a worker's
// scratch and transposed. Walks run in windows of warmUpWindow ads, so at
// most that many stretches are held at once. Workers take the plane's
// verdicts without booking (see lost); their drops and copies are booked at
// t = -1 once all batches are in, and the passes that write caches and
// holder tables stay serial.
func (s *Scheme) warmUp(ads []floodAd) {
	const t = warmUpTime
	ws := make([]*warmWorker, min(runtime.GOMAXPROCS(0), max(1, len(ads))))
	for w := range ws {
		ws[w] = &warmWorker{k: &s.flood}
		if w > 0 {
			k := newFloodScratch(len(s.nodes))
			ws[w].k = &k
		}
	}
	lists := make([][]uint32, len(ads)) // per ad: its wanting recipients, then its survivors
	if s.cfg.Delivery == FLD {
		fanOut(len(ws), (len(ads)+maxFloodBatch-1)/maxFloodBatch, func(w, b int) {
			lo := b * maxFloodBatch
			batch := ads[lo:min(len(ads), lo+maxFloodBatch)]
			s.reach(ws[w].k, t, batch)
			for i, ad := range batch {
				ws[w].count(ad, ws[w].k.sent[i])
			}
			ws[w].transpose(s, batch, lists[lo:])
		})
	} else {
		s.walkWarmUp(ws, ads, lists)
	}
	for _, w := range ws {
		s.sys.Load.Send(t, adFull.class(), w.bytes, w.copies)
		s.bookDrops(t, w.k)
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
			h.put(overlay.NodeID(v), ns.insert(snap, s.cfg.CacheCapacity), snap.version, t)
			ns.minSeen = t // no clock is lower
		}
	}
}

// warmUpWindow is the number of warm-up walks held at once: enough for a
// full batch, so every window closes at least one.
const warmUpWindow = 4 * maxFloodBatch

// warmWalk is one warm-up ad walked alone: its stretch of order (the source
// and its first visits, empty when it reached nobody) and the room walks
// reserves for it.
type warmWalk struct {
	stretch []overlay.NodeID
	room    int
}

// walkWarmUp reaches the warm-up ads by walks and transposes them into
// lists, window by window: walk the window's new ads, cut the batches that
// close inside it, transpose them, and carry the ads of a batch still open
// into the next window.
func (s *Scheme) walkWarmUp(ws []*warmWorker, ads []floodAd, lists [][]uint32) {
	capacity := cap(s.flood.order) // every worker's order has this room, as in deliverAll's walks
	var pend []warmWalk            // the walked ads from done on
	var ends []int                 // the closed batches' ends in pend
	for done := 0; done < len(ads); {
		lo := done + len(pend)
		fresh := min(len(ads), done+warmUpWindow) - lo
		pend = slices.Grow(pend, fresh)[:len(pend)+fresh]
		walked := pend[len(pend)-fresh:]
		fanOut(len(ws), fresh, func(w, j int) {
			walked[j] = ws[w].walkAlone(s, ads[lo+j])
		})
		ends = ends[:0]
		for start := 0; start < len(pend); {
			end, used := start, 0
			for end < len(pend) && end-start < maxFloodBatch && used+pend[end].room <= capacity {
				used += len(pend[end].stretch)
				end++
			}
			if end == len(pend) && end-start < maxFloodBatch && done+end < len(ads) {
				break // the batch may take ads the window has not walked
			}
			ends = append(ends, end)
			start = end
		}
		fanOut(len(ws), len(ends), func(w, b int) {
			start := 0
			if b > 0 {
				start = ends[b-1]
			}
			k := ws[w].k
			seen := k.seen[1:]
			for i, wk := range pend[start:ends[b]] {
				for _, v := range wk.stretch {
					seen[v] |= 1 << i
				}
				k.order = append(k.order, wk.stretch...)
			}
			ws[w].transpose(s, ads[done+start:done+ends[b]], lists[done+start:])
		})
		n := ends[len(ends)-1]
		pend = append(pend[:0], pend[n:]...)
		done += n
	}
}

// warmWorker is one warm-up worker's private state: its delivery scratch,
// the transposition's hit list, and the full-ad copies its reaches sent and
// their bytes.
type warmWorker struct {
	k             *floodScratch
	hits          []warmHit
	bytes, copies int
}

// warmHit is a node of a batch's reach that wants some of its ads: word has
// bit i for each wanted ad i that reached it.
type warmHit struct {
	v    uint32
	word uint64
}

// walkAlone walks ad alone (seen's bit 0) and returns its stretch and room,
// leaving w's scratch empty.
func (w *warmWorker) walkAlone(s *Scheme, ad floodAd) warmWalk {
	k := w.k
	starts, budget, room := s.walkPlan(k, warmUpTime, ad)
	s.walk(k, warmUpTime, 0, ad, starts, budget)
	w.count(ad, k.sent[0])
	out := warmWalk{slices.Clone(k.order), room}
	k.reset()
	return out
}

// count adds the copies of ad's delivery to w's totals.
func (w *warmWorker) count(ad floodAd, sent int) {
	w.copies += sent
	w.bytes += ad.snap.wireBytes(ad.kind) * sent
}

// transpose lists into recv[i], for each ad i of batch, the nodes of the
// batch's reach in w's scratch that want it, its source excepted, in the
// order k.order first lists them, and leaves the scratch empty.
func (w *warmWorker) transpose(s *Scheme, batch []floodAd, recv [][]uint32) {
	k := w.k
	seen := k.seen[1:]
	var byClass [content.NumClasses]uint64 // the batch's ads targeting each class
	for i, ad := range batch {
		seen[ad.snap.src] &^= 1 << i
		for c := ad.targeting; c != 0; c &= c - 1 {
			byClass[bits.TrailingZeros16(uint16(c))] |= 1 << i
		}
	}
	cnt, total := [maxFloodBatch]int{}, 0
	w.hits = w.hits[:0]
	for _, v := range k.order {
		var m uint64 // the batch's ads v wants
		if s.cacheEligible(v) {
			for c := s.groupInterests(v); c != 0; c &= c - 1 {
				m |= byClass[bits.TrailingZeros16(uint16(c))]
			}
		}
		if word := seen[v] & m; word != 0 {
			seen[v] = 0 // a node order lists twice is taken once
			w.hits, total = append(w.hits, warmHit{uint32(v), word}), total+bits.OnesCount64(word)
			for b := word; b != 0; b &= b - 1 {
				cnt[bits.TrailingZeros64(b)]++
			}
		}
	}
	arena := make([]uint32, total)
	for i := range batch {
		recv[i], arena = arena[:0:cnt[i]], arena[cnt[i]:]
	}
	for _, h := range w.hits {
		for b := h.word; b != 0; b &= b - 1 {
			i := bits.TrailingZeros64(b)
			recv[i] = append(recv[i], h.v)
		}
	}
	k.reset()
}

// fanOut runs job(w, j) for every j in [0, n) on min(workers, n) workers,
// w the worker's index; worker 0 is the calling goroutine. Jobs are taken
// in index order from a shared counter, so which worker runs a job is
// arbitrary: a job writes only its own outputs and its worker's state.
func fanOut(workers, n int, job func(w, j int)) {
	var next atomic.Int64
	run := func(w int) {
		for j := int(next.Add(1)) - 1; j < n; j = int(next.Add(1)) - 1 {
			job(w, j)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
