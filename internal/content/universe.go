package content

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Keyword is an interned keyword identifier. Keywords are class-scoped:
// keyword k of class c has ID c·VocabPerClass + k + 1 (0 is reserved as
// "no keyword"). Interning keeps the 923,000-document universe compact;
// the Bloom layer hashes the integer directly.
type Keyword uint32

// DocID identifies a distinct document (file name) in the universe.
type DocID uint32

// PeerID identifies a peer in the universe, 0 ≤ id < NumPeers.
type PeerID int32

// Document is one distinct file: its semantic class and a view into the
// keyword arena. Keyword slices are sorted ascending.
type Document struct {
	Class Class
	kwOff uint32
	kwLen uint8
	hOff  uint32
	hLen  uint8
}

// Peer is one peer's static profile: its interest set I(p), free-rider
// flag, and the documents it shares at trace start.
type Peer struct {
	Interests ClassSet
	FreeRider bool
	Docs      []DocID
}

// Universe is an immutable content-distribution snapshot. It is safe for
// concurrent reads.
type Universe struct {
	cfg     Config
	docs    []Document
	peers   []Peer
	kwArena []Keyword // all documents' keywords, concatenated
	hArena  []PeerID  // all documents' initial holders, concatenated

	sharerCount int // peers that were assigned sharing capacity
}

// Generate builds a universe from cfg. It panics on an invalid
// configuration.
func Generate(cfg Config) *Universe {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xda3e39cb94b95bdb))
	u := &Universe{cfg: cfg}
	u.generatePeers(rng)
	u.generateDocs(rng)
	u.finalizeInterests()
	return u
}

// Config returns the generating configuration.
func (u *Universe) Config() Config { return u.cfg }

// NumDocs returns the number of distinct documents.
func (u *Universe) NumDocs() int { return len(u.docs) }

// NumPeers returns the number of peers.
func (u *Universe) NumPeers() int { return len(u.peers) }

// Peer returns peer id's profile. The returned pointer aliases universe
// state; callers must not mutate it.
func (u *Universe) Peer(id PeerID) *Peer { return &u.peers[id] }

// ClassOf returns the document's semantic class.
func (u *Universe) ClassOf(d DocID) Class { return u.docs[d].Class }

// Keywords returns the document's sorted keyword list as a shared view.
func (u *Universe) Keywords(d DocID) []Keyword {
	doc := &u.docs[d]
	return u.kwArena[doc.kwOff : doc.kwOff+uint32(doc.kwLen)]
}

// Holders returns the peers sharing the document at trace start, as a
// shared view.
func (u *Universe) Holders(d DocID) []PeerID {
	doc := &u.docs[d]
	return u.hArena[doc.hOff : doc.hOff+uint32(doc.hLen)]
}

// TotalInstances returns the number of (document, holder) pairs: the total
// copies in the universe.
func (u *Universe) TotalInstances() int { return len(u.hArena) }

// DocMatches reports whether the document contains every query term — the
// ground truth a content confirmation checks against. A document carries at
// most MaxKeywords keywords, so each term is one short scan.
func (u *Universe) DocMatches(d DocID, terms []Keyword) bool {
	kws := u.Keywords(d)
	for _, t := range terms {
		if !containsKeyword(kws, t) {
			return false
		}
	}
	return len(terms) > 0
}

// classWeights returns the skewed popularity weights of the 14 classes and
// their cumulative sum.
func (u *Universe) classWeights() ([NumClasses]float64, float64) {
	var w [NumClasses]float64
	total := 0.0
	for c := 0; c < NumClasses; c++ {
		w[c] = 1 / math.Pow(float64(c+1), u.cfg.ClassSkew)
		total += w[c]
	}
	return w, total
}

func sampleClass(w *[NumClasses]float64, total float64, rng *rand.Rand) Class {
	x := rng.Float64() * total
	for c := 0; c < NumClasses-1; c++ {
		x -= w[c]
		if x < 0 {
			return Class(c)
		}
	}
	return NumClasses - 1
}

// generatePeers draws each peer's free-rider flag, target interest set and
// sharing capacity, and builds per-class assignment pools.
func (u *Universe) generatePeers(rng *rand.Rand) {
	cfg := u.cfg
	u.peers = make([]Peer, cfg.NumPeers)
	w, totalW := u.classWeights()

	sharers := 0
	for i := range u.peers {
		if rng.Float64() < cfg.FreeRiderFrac {
			u.peers[i].FreeRider = true
			// Free-rider interests are assigned randomly (§IV-B step 3).
			n := 1 + rng.IntN(3)
			var s ClassSet
			for s.Count() < n {
				s = s.Add(Class(rng.IntN(NumClasses)))
			}
			u.peers[i].Interests = s
			continue
		}
		sharers++
		n := cfg.MinInterests + rng.IntN(cfg.MaxInterests-cfg.MinInterests+1)
		var s ClassSet
		for s.Count() < n {
			s = s.Add(sampleClass(&w, totalW, rng))
		}
		u.peers[i].Interests = s
	}
	u.sharerCount = sharers
}

// generateDocs creates the documents, draws their replication counts, and
// assigns copies to interested peers through per-class slot pools.
func (u *Universe) generateDocs(rng *rand.Rand) {
	cfg := u.cfg
	w, totalW := u.classWeights()

	// Target total copies and per-sharer capacities (lognormal, mean
	// totalCopies/sharers, minimum 1).
	totalCopies := float64(cfg.NumDocs) * cfg.AvgCopies
	meanCap := totalCopies / math.Max(1, float64(u.sharerCount))
	mu := math.Log(meanCap) - cfg.CapacitySigma*cfg.CapacitySigma/2

	// pools[c] lists peer slots willing to host a class-c document.
	var pools [NumClasses][]PeerID
	for id := range u.peers {
		p := &u.peers[id]
		if p.FreeRider {
			continue
		}
		capacity := int(math.Round(math.Exp(rng.NormFloat64()*cfg.CapacitySigma + mu)))
		if capacity < 1 {
			capacity = 1
		}
		interests := p.Interests.Classes()
		for s := 0; s < capacity; s++ {
			c := interests[rng.IntN(len(interests))]
			pools[c] = append(pools[c], PeerID(id))
		}
	}
	for c := range pools {
		rng.Shuffle(len(pools[c]), func(i, j int) {
			pools[c][i], pools[c][j] = pools[c][j], pools[c][i]
		})
	}

	// Geometric tail parameter for multi-copy documents: mean copies
	// must come out at AvgCopies given SingleCopyFrac.
	var pGeom float64
	if cfg.SingleCopyFrac < 1 {
		t := (cfg.AvgCopies - cfg.SingleCopyFrac - 2*(1-cfg.SingleCopyFrac)) / (1 - cfg.SingleCopyFrac)
		pGeom = 1 / (1 + math.Max(0, t))
	}

	// Shared keyword-rank CDF (Zipf over the class vocabulary).
	kwCum := make([]float64, cfg.VocabPerClass)
	acc := 0.0
	for i := range kwCum {
		acc += 1 / math.Pow(float64(i+1), cfg.KeywordSkew)
		kwCum[i] = acc
	}
	sampleKeyword := func(c Class) Keyword {
		x := rng.Float64() * acc
		i := sort.SearchFloat64s(kwCum, x)
		if i >= cfg.VocabPerClass {
			i = cfg.VocabPerClass - 1
		}
		return Keyword(int(c)*cfg.VocabPerClass + i + 1)
	}

	u.docs = make([]Document, 0, cfg.NumDocs)
	u.kwArena = make([]Keyword, 0, cfg.NumDocs*(cfg.MinKeywords+cfg.MaxKeywords)/2)
	u.hArena = make([]PeerID, 0, int(totalCopies)+cfg.NumDocs/10)

	var kwScratch []Keyword
	for d := 0; d < cfg.NumDocs; d++ {
		c := sampleClass(&w, totalW, rng)
		if len(pools[c]) == 0 {
			// The class pool ran dry: reassign to the fullest pool so the
			// "peers hold only interesting documents" invariant holds.
			best, bestLen := c, 0
			for cc := Class(0); cc < NumClasses; cc++ {
				if len(pools[cc]) > bestLen {
					best, bestLen = cc, len(pools[cc])
				}
			}
			if bestLen == 0 {
				break // universe capacity exhausted; docs truncated
			}
			c = best
		}

		copies := 1
		if rng.Float64() >= cfg.SingleCopyFrac && pGeom > 0 {
			copies = 2
			for rng.Float64() >= pGeom {
				copies++
			}
		}

		hOff := uint32(len(u.hArena))
		assigned := 0
		for assigned < copies && len(pools[c]) > 0 && assigned < 255 {
			pool := pools[c]
			id := pool[len(pool)-1]
			pools[c] = pool[:len(pool)-1]
			if containsPeer(u.hArena[hOff:], id) {
				continue // same holder drawn twice; copy dropped
			}
			u.hArena = append(u.hArena, id)
			assigned++
		}
		if assigned == 0 {
			continue // nobody left to host it; drop the document
		}

		// Keywords: MinKeywords..MaxKeywords distinct class-vocabulary
		// terms, sorted.
		nkw := cfg.MinKeywords + rng.IntN(cfg.MaxKeywords-cfg.MinKeywords+1)
		kwScratch = kwScratch[:0]
		for tries := 0; len(kwScratch) < nkw && tries < nkw*4; tries++ {
			kw := sampleKeyword(c)
			if !containsKeyword(kwScratch, kw) {
				kwScratch = append(kwScratch, kw)
			}
		}
		sort.Slice(kwScratch, func(i, j int) bool { return kwScratch[i] < kwScratch[j] })
		kwOff := uint32(len(u.kwArena))
		u.kwArena = append(u.kwArena, kwScratch...)

		doc := Document{Class: c, kwOff: kwOff, kwLen: uint8(len(kwScratch)), hOff: hOff, hLen: uint8(assigned)}
		u.docs = append(u.docs, doc)
		docID := DocID(len(u.docs) - 1)
		for _, h := range u.hArena[hOff : hOff+uint32(assigned)] {
			u.peers[h].Docs = append(u.peers[h].Docs, docID)
		}
	}
}

// finalizeInterests sets each sharer's interest set to the classes of its
// actual contents (§IV-B step 3). Sharers that ended up with no documents
// keep their target interests and are flagged free-riders.
func (u *Universe) finalizeInterests() {
	for id := range u.peers {
		p := &u.peers[id]
		if p.FreeRider {
			continue
		}
		if len(p.Docs) == 0 {
			p.FreeRider = true
			continue
		}
		var s ClassSet
		for _, d := range p.Docs {
			s = s.Add(u.docs[d].Class)
		}
		p.Interests = s
	}
}

func containsPeer(xs []PeerID, x PeerID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsKeyword(xs []Keyword, x Keyword) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ClassOfKeyword returns the semantic class a keyword belongs to. Keywords
// are class-scoped by construction (see Keyword), so the mapping is exact:
// a document can only contain keyword kw if its class is ClassOfKeyword(kw).
func (u *Universe) ClassOfKeyword(kw Keyword) Class {
	return Class((int(kw) - 1) / u.cfg.VocabPerClass)
}
