package core

import (
	"testing"
	"testing/quick"

	"asap/internal/bloom"
	"asap/internal/overlay"
)

// storeOp is one randomly generated cache interaction.
type storeOp struct {
	Src     uint8
	Version uint8 // kept small so sequences and gaps both occur
	Kind    uint8
	Time    uint16
}

// TestStoreInvariantsProperty drives a nodeState cache with arbitrary
// sequences of stores (all three kinds), dead-source drops and staleness
// sweeps, and checks the structural invariants:
//
//   - the cache never exceeds capacity;
//   - fifo lists exactly the cached sources, no duplicates, and agrees
//     with the holder index, version stamps included (checkIndex);
//   - a cached entry's version never moves backwards;
//   - lastSeen never decreases for a surviving entry.
func TestStoreInvariantsProperty(t *testing.T) {
	const capacity = 8
	prop := func(ops []storeOp) bool {
		c := newCaches(16, capacity)
		lastVersion := map[overlay.NodeID]uint16{}
		lastSeen := map[overlay.NodeID]int64{}
		now := int64(0)
		for _, op := range ops {
			now += int64(op.Time) // replay time is monotonic
			src := overlay.NodeID(op.Src % 16)
			switch kind := op.Kind % 5; kind {
			case 3:
				c.drop(0, src)
			case 4:
				c.dropStale(0, now-int64(op.Version)<<8)
			default:
				f := bloom.New(64, 2)
				// Versions straddle the 16-bit wrap: 65408 … 65535, 0 … 127.
				sn := &adSnapshot{src: src, version: uint16(op.Version) - 128, topics: 1, filter: f, fullWire: 8, patchWire: 4}
				c.store(0, sn, adKind(kind), now)
			}

			ns := &c.nodes[0]
			if len(ns.live()) > capacity {
				return false
			}
			fifo := cacheSources(c, 0)
			if len(fifo) != len(ns.live()) || checkIndex(c) != nil {
				return false
			}
			seen := map[overlay.NodeID]bool{}
			for _, k := range fifo {
				if seen[k] {
					return false
				}
				seen[k] = true
				if c.entry(0, k) == nil {
					return false
				}
			}
			for _, k := range fifo {
				e := c.entry(0, k)
				if prev, ok := lastVersion[k]; ok && newerVersion(prev, e.snap.version) {
					return false // version went backwards
				}
				lastVersion[k] = e.snap.version
				if prev, ok := lastSeen[k]; ok && e.lastSeen < prev {
					return false
				}
				lastSeen[k] = e.lastSeen
			}
			// Entries that vanished (evicted) reset their history.
			for k := range lastVersion {
				if c.entry(0, k) == nil {
					delete(lastVersion, k)
					delete(lastSeen, k)
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStoreGapAlwaysRecoverable: after any gap outcome, storing the
// source's current full snapshot always lands the cache at that version.
func TestStoreGapAlwaysRecoverable(t *testing.T) {
	prop := func(haveV, newV uint16) bool {
		c := newCaches(16, 8)
		c.store(0, snap(1, haveV, 1), adFull, 0)
		outcome := c.store(0, snap(1, newV, 1), adPatch, 1)
		if outcome == storedGap {
			cur := snap(1, newV, 1)
			c.store(0, cur, adFull, 2)
			return c.entry(0, 1).snap.version == newV
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNewerVersionProperty: serial-number comparison is antisymmetric and
// irreflexive.
func TestNewerVersionProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		if a == b {
			return !newerVersion(a, b) && !newerVersion(b, a)
		}
		// Exactly at the half-range boundary both directions are "older"
		// (RFC 1982 leaves it undefined); elsewhere exactly one wins.
		if uint16(a-b) == 1<<15 {
			return true
		}
		return newerVersion(a, b) != newerVersion(b, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
