package content

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// Config returns the generating configuration.
func (u *Universe) Config() Config { return u.cfg }

// TotalInstances returns the number of (document, holder) pairs: the total
// copies in the universe.
func (u *Universe) TotalInstances() int { return len(u.hArena) }

// CopyStats returns the mean copies per document and the fraction of
// documents with exactly one copy — the two replication statistics §V-A
// quotes for the eDonkey trace (≈1.28 and 89%).
func (u *Universe) CopyStats() (mean float64, singleFrac float64) {
	if len(u.docs) == 0 {
		return 0, 0
	}
	single := 0
	for i := range u.docs {
		if u.docs[i].hLen == 1 {
			single++
		}
	}
	return float64(len(u.hArena)) / float64(len(u.docs)), float64(single) / float64(len(u.docs))
}

// FreeRiderCount returns the number of free-riding peers in sel (nil = all).
func (u *Universe) FreeRiderCount(sel []PeerID) int {
	n := 0
	eachPeer(u, sel, func(p *Peer) {
		if p.FreeRider {
			n++
		}
	})
	return n
}

// KeywordSetSize returns |K_p|: the number of distinct keywords across the
// peer's shared documents (§III-B). The fixed Bloom geometry is provisioned
// for |K_max| = 1,000.
func (u *Universe) KeywordSetSize(id PeerID) int {
	seen := make(map[Keyword]struct{}, 64)
	for _, d := range u.peers[id].Docs {
		for _, kw := range u.Keywords(d) {
			seen[kw] = struct{}{}
		}
	}
	return len(seen)
}
