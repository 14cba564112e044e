// Package serve is the always-on query serving plane: it wraps a warm
// replay node (sim.System + core.Scheme) behind a lock-free read path so
// many goroutines can execute ASAP searches concurrently while trace
// state events (churn, content, ticks) apply between them, and fronts
// that path with token-bucket admission control, bounded queueing and
// graceful drain. HTTP JSON and length-prefixed binary endpoints
// (http.go, binary.go) expose it over internal/transport listeners;
// cmd/asapload drives it open-loop.
package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// gateSlot is one reader's padded epoch marker. The padding keeps each
// slot on its own cache line so readers entering and exiting do not
// false-share, which is what makes the read side scale.
type gateSlot struct {
	v atomic.Uint64
	_ [120]byte
}

// Gate is an epoch-based reader/writer barrier in the RCU style: readers
// are lock-free and wait-free against each other (two uncontended atomic
// stores per section, no shared mutation), and the single writer waits
// for the readers that entered before its epoch bump to leave.
//
// The protocol: the epoch counter is even when the store is stable and
// odd while an apply is in progress. A reader claims its private slot by
// storing the observed even epoch (made odd, so zero stays "empty"),
// then re-checks the epoch — if an apply snuck in between the load and
// the claim, the reader backs out and retries. A writer bumps the epoch
// to odd, then spins until every slot is empty: any reader that published
// its claim before the bump is waited for, and any reader that loads the
// epoch after the bump sees it odd and backs off. All operations are
// sequentially consistent atomics, so the race detector proves the
// happens-before edges rather than taking them on faith.
//
// Taking the writer lock and closing the gate are separate steps, so a
// writer can read the store with readers still inside and close only when
// it starts writing (Node.Tick). Epoch after the i-th completed apply is
// 2i; Enter always returns the even epoch the read section is valid for.
type Gate struct {
	epoch atomic.Uint64
	mu    sync.Mutex // serialises writers
	slots []gateSlot
}

// NewGate returns a gate with n reader slots (one per serving worker).
func NewGate(n int) *Gate {
	return &Gate{slots: make([]gateSlot, n)}
}

// Slots returns the number of reader slots.
func (g *Gate) Slots() int { return len(g.slots) }

// Epoch returns the current epoch: even when stable (2 × applies so
// far), odd while an apply is in progress.
func (g *Gate) Epoch() uint64 { return g.epoch.Load() }

// Enter begins a read section on the given slot and returns the even
// epoch it is valid for. It spins (yielding) while an apply is in
// progress, and retries if one begins between observing the epoch and
// claiming the slot — the epoch-validated snapshot acquisition.
func (g *Gate) Enter(slot int) uint64 {
	s := &g.slots[slot].v
	for i := 0; ; i++ {
		e := g.epoch.Load()
		if e&1 == 0 {
			s.Store(e + 1) // claim: odd marker, never zero
			if g.epoch.Load() == e {
				return e
			}
			s.Store(0) // writer raced in; back out and retry
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
}

// Exit ends the read section on the given slot.
func (g *Gate) Exit(slot int) {
	g.slots[slot].v.Store(0)
}

// BeginApply starts a write section: it takes the writer lock and closes
// the gate. Until the matching EndApply, new readers spin in Enter.
func (g *Gate) BeginApply() {
	g.mu.Lock()
	g.close()
}

// close flips the epoch odd and waits for every in-flight reader to leave.
// A writer holding the lock may read the store alongside readers until it
// closes, and must close before it writes.
func (g *Gate) close() {
	g.epoch.Add(1) // now odd: no new reader can claim a slot
	for i := range g.slots {
		for j := 0; g.slots[i].v.Load() != 0; j++ {
			if j&15 == 15 {
				runtime.Gosched()
			}
		}
	}
}

// EndApply ends the write section, flipping the epoch back to even and
// releasing the writer lock.
func (g *Gate) EndApply() {
	g.epoch.Add(1)
	g.mu.Unlock()
}
