package netmodel

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// networkFingerprint hashes every intra-domain Distance (each stub domain's
// whole hop matrix, scaled by the link latency) plus a strided sample of
// pairs across the whole universe (transit, climb and backbone paths).
func networkFingerprint(nw *Network) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(d int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(d))
		h.Write(buf[:])
	}
	per := nw.Config().StubPerDomain
	for d := range nw.domains {
		base := PhysID(nw.NumTransit() + d*per)
		for a := 0; a < per; a++ {
			for b := 0; b < per; b++ {
				put(nw.Distance(base+PhysID(a), base+PhysID(b)))
			}
		}
	}
	n := nw.TotalNodes()
	for a := 0; a < n; a += 61 {
		for b := a % 53; b < n; b += 4999 {
			put(nw.Distance(PhysID(a), PhysID(b)))
		}
	}
	return h.Sum64()
}

// TestGenerateFingerprint pins the paper-scale network (40-node stub
// domains, which the small-config goldens never build) at two seeds, so a
// change to the generator that alters any hop count or backbone distance
// fails here. The constants were taken from the queue-BFS generator.
func TestGenerateFingerprint(t *testing.T) {
	want := map[uint64]uint64{
		1: 0x44d861727d366205,
		2: 0x77d3fae13f16f611,
	}
	for _, seed := range []uint64{1, 2} {
		c := DefaultConfig()
		c.Seed = seed
		if got := networkFingerprint(Generate(c)); got != want[seed] {
			t.Errorf("seed %d: fingerprint %#x, want %#x", seed, got, want[seed])
		}
	}
}
