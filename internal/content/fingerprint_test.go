package content

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// universeFingerprint hashes every document's class, keywords and holders
// and every peer's profile (interests, free-rider flag, document list).
func universeFingerprint(u *Universe) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	put(uint32(u.NumDocs()))
	for d := 0; d < u.NumDocs(); d++ {
		id := DocID(d)
		put(uint32(u.ClassOf(id)))
		kws := u.Keywords(id)
		put(uint32(len(kws)))
		for _, kw := range kws {
			put(uint32(kw))
		}
		hs := u.Holders(id)
		put(uint32(len(hs)))
		for _, p := range hs {
			put(uint32(p))
		}
	}
	for id := 0; id < u.NumPeers(); id++ {
		p := u.Peer(PeerID(id))
		put(uint32(p.Interests))
		if p.FreeRider {
			put(1)
		} else {
			put(0)
		}
		put(uint32(len(p.Docs)))
		for _, d := range p.Docs {
			put(uint32(d))
		}
	}
	return h.Sum64()
}

// TestGenerateFingerprint pins a 1/5-scale paper universe byte for byte, so
// a change to the generator that alters any draw, keyword, holder or peer
// list fails here. The constant was taken from the binary-search generator.
func TestGenerateFingerprint(t *testing.T) {
	const want = 0xc069e7640e79e957
	if got := universeFingerprint(Generate(DefaultConfig().Scaled(0.2))); got != want {
		t.Errorf("fingerprint %#x, want %#x", got, uint64(want))
	}
}
