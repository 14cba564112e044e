package content

// ContentClassCounts returns, for each semantic class, the number of peers
// in sel whose shared contents fall in that class — the series of the
// paper's Figure 2. A nil sel counts all peers.
func (u *Universe) ContentClassCounts(sel []PeerID) [NumClasses]int {
	var out [NumClasses]int
	eachPeer(u, sel, func(p *Peer) {
		var seen ClassSet
		for _, d := range p.Docs {
			seen = seen.Add(u.docs[d].Class)
		}
		for _, c := range seen.Classes() {
			out[c]++
		}
	})
	return out
}

// InterestCounts returns, for each class, the number of peers in sel whose
// interest set contains it — the series of the paper's Figure 3. A nil sel
// counts all peers.
func (u *Universe) InterestCounts(sel []PeerID) [NumClasses]int {
	var out [NumClasses]int
	eachPeer(u, sel, func(p *Peer) {
		for _, c := range p.Interests.Classes() {
			out[c]++
		}
	})
	return out
}

func eachPeer(u *Universe, sel []PeerID, fn func(*Peer)) {
	if sel == nil {
		for i := range u.peers {
			fn(&u.peers[i])
		}
		return
	}
	for _, id := range sel {
		fn(&u.peers[id])
	}
}
