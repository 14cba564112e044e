package content

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// testConfig is a fast universe for unit tests (~1/50 scale).
func testConfig() Config {
	c := DefaultConfig()
	c.NumPeers = 800
	c.NumDocs = 20000
	return c
}

func genTest(t *testing.T) *Universe {
	t.Helper()
	return Generate(testConfig())
}

func TestValidateDefaults(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := DefaultConfig().Scaled(0.2).Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.NumPeers = 0 },
		func(c *Config) { c.AvgCopies = 0.5 },
		func(c *Config) { c.SingleCopyFrac = 1.5 },
		func(c *Config) { c.FreeRiderFrac = 1 },
		func(c *Config) { c.MaxInterests = 0 },
		func(c *Config) { c.MaxInterests = NumClasses + 1 },
		func(c *Config) { c.MinKeywords = 0 },
		func(c *Config) { c.MaxKeywords = 256 },
		func(c *Config) { c.VocabPerClass = 2 },
		func(c *Config) { c.AvgCopies = 1.0; c.SingleCopyFrac = 0.5 }, // infeasible
	}
	for i, m := range mods {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed Validate", i)
		}
	}
}

func TestScaled(t *testing.T) {
	c := DefaultConfig().Scaled(0.1)
	if c.NumPeers != 3700 || c.NumDocs != 92300 {
		t.Errorf("Scaled(0.1) = %d peers %d docs", c.NumPeers, c.NumDocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scaled(0) did not panic")
		}
	}()
	DefaultConfig().Scaled(0)
}

func TestCopyStatisticsMatchCalibration(t *testing.T) {
	u := genTest(t)
	mean, single := u.CopyStats()
	if math.Abs(mean-1.28) > 0.08 {
		t.Errorf("mean copies %.3f, want ≈1.28", mean)
	}
	if math.Abs(single-0.89) > 0.03 {
		t.Errorf("single-copy fraction %.3f, want ≈0.89", single)
	}
}

func TestFreeRiderFraction(t *testing.T) {
	u := genTest(t)
	frac := float64(u.FreeRiderCount(nil)) / float64(u.NumPeers())
	if frac < 0.15 || frac > 0.40 {
		t.Errorf("free-rider fraction %.3f, want ≈0.25", frac)
	}
}

func TestSharersHoldOnlyInterestingDocs(t *testing.T) {
	u := genTest(t)
	for id := 0; id < u.NumPeers(); id++ {
		p := u.Peer(PeerID(id))
		if p.FreeRider {
			if len(p.Docs) != 0 {
				t.Fatalf("free-rider %d shares %d docs", id, len(p.Docs))
			}
			if p.Interests.Empty() {
				t.Fatalf("free-rider %d has no interests", id)
			}
			continue
		}
		for _, d := range p.Docs {
			if !p.Interests.Has(u.ClassOf(d)) {
				t.Fatalf("peer %d holds class %v outside interests %v", id, u.ClassOf(d), p.Interests)
			}
		}
	}
}

func TestInterestsEqualContentClasses(t *testing.T) {
	u := genTest(t)
	for id := 0; id < u.NumPeers(); id++ {
		p := u.Peer(PeerID(id))
		if p.FreeRider {
			continue
		}
		var want ClassSet
		for _, d := range p.Docs {
			want = want.Add(u.ClassOf(d))
		}
		if p.Interests != want {
			t.Fatalf("peer %d interests %v != content classes %v", id, p.Interests, want)
		}
	}
}

func TestHoldersConsistentWithPeerDocs(t *testing.T) {
	u := genTest(t)
	for d := 0; d < u.NumDocs(); d++ {
		holders := u.Holders(DocID(d))
		if len(holders) == 0 {
			t.Fatalf("doc %d has no holders", d)
		}
		seen := map[PeerID]bool{}
		for _, h := range holders {
			if seen[h] {
				t.Fatalf("doc %d lists holder %d twice", d, h)
			}
			seen[h] = true
			found := false
			for _, pd := range u.Peer(h).Docs {
				if pd == DocID(d) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("doc %d holder %d missing reverse link", d, h)
			}
		}
	}
}

func TestKeywordsSortedAndClassScoped(t *testing.T) {
	u := genTest(t)
	cfg := u.Config()
	for d := 0; d < u.NumDocs(); d++ {
		kws := u.Keywords(DocID(d))
		if len(kws) < cfg.MinKeywords || len(kws) > cfg.MaxKeywords {
			t.Fatalf("doc %d has %d keywords, want [%d,%d]", d, len(kws), cfg.MinKeywords, cfg.MaxKeywords)
		}
		c := u.ClassOf(DocID(d))
		lo := Keyword(int(c)*cfg.VocabPerClass + 1)
		hi := Keyword((int(c) + 1) * cfg.VocabPerClass)
		for i, kw := range kws {
			if kw < lo || kw > hi {
				t.Fatalf("doc %d keyword %d outside class %v vocabulary", d, kw, c)
			}
			if i > 0 && kws[i-1] >= kw {
				t.Fatalf("doc %d keywords not strictly ascending: %v", d, kws)
			}
		}
	}
}

func TestDocMatches(t *testing.T) {
	u := genTest(t)
	d := DocID(0)
	kws := u.Keywords(d)
	if !u.DocMatches(d, kws[:1]) {
		t.Error("DocMatches false for own first keyword")
	}
	if !u.DocMatches(d, kws) {
		t.Error("DocMatches false for full keyword set")
	}
	if u.DocMatches(d, []Keyword{0}) {
		t.Error("DocMatches true for reserved keyword 0")
	}
	if u.DocMatches(d, nil) {
		t.Error("DocMatches true for empty term list")
	}
	foreign := append(append([]Keyword{}, kws...), 0xFFFFFFF)
	if u.DocMatches(d, foreign) {
		t.Error("DocMatches true with a foreign term included")
	}
	// Query terms arrive in any order and may repeat.
	rev := append([]Keyword{}, kws...)
	slices.Reverse(rev)
	if !u.DocMatches(d, rev) || !u.DocMatches(d, []Keyword{kws[0], kws[0]}) {
		t.Error("DocMatches false for its own keywords reversed or repeated")
	}
}

func TestKeywordSetSizeWithinBloomProvision(t *testing.T) {
	u := genTest(t)
	maxKp := 0
	for id := 0; id < u.NumPeers(); id++ {
		if k := u.KeywordSetSize(PeerID(id)); k > maxKp {
			maxKp = k
		}
	}
	// The fixed Bloom geometry is provisioned for |K_max| = 1,000.
	if maxKp > 1000 {
		t.Errorf("max keyword set %d exceeds the |K_max|=1000 provisioning", maxKp)
	}
	if maxKp == 0 {
		t.Error("no peer has any keywords")
	}
}

func TestClassDistributionSkewed(t *testing.T) {
	u := genTest(t)
	counts := u.ContentClassCounts(nil)
	if counts[0] <= counts[NumClasses-1] {
		t.Errorf("class popularity not skewed: first=%d last=%d", counts[0], counts[NumClasses-1])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no content classes counted")
	}
}

func TestInterestCountsCoverFreeRiders(t *testing.T) {
	u := genTest(t)
	interests := u.InterestCounts(nil)
	contents := u.ContentClassCounts(nil)
	totI, totC := 0, 0
	for c := 0; c < NumClasses; c++ {
		totI += interests[c]
		totC += contents[c]
	}
	// Free-riders have interests but no contents, so interest mass must
	// strictly exceed content mass.
	if totI <= totC {
		t.Errorf("interest mass %d not above content mass %d", totI, totC)
	}
}

func TestSelectionSubsetCounts(t *testing.T) {
	u := genTest(t)
	rng := rand.New(rand.NewPCG(5, 5))
	sel := make([]PeerID, 0, 100)
	for len(sel) < 100 {
		sel = append(sel, PeerID(rng.IntN(u.NumPeers())))
	}
	sub := u.InterestCounts(sel)
	all := u.InterestCounts(nil)
	for c := 0; c < NumClasses; c++ {
		if sub[c] > all[c] {
			t.Fatalf("subset count %d exceeds total %d for class %d", sub[c], all[c], c)
		}
	}
}

func TestDeterminismBySeed(t *testing.T) {
	a := Generate(testConfig())
	b := Generate(testConfig())
	if a.NumDocs() != b.NumDocs() || a.TotalInstances() != b.TotalInstances() {
		t.Fatal("same seed produced different universes")
	}
	for d := 0; d < 100; d++ {
		ka, kb := a.Keywords(DocID(d)), b.Keywords(DocID(d))
		if len(ka) != len(kb) {
			t.Fatalf("doc %d keyword count differs", d)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("doc %d keywords differ", d)
			}
		}
	}
	c := testConfig()
	c.Seed = 2
	if Generate(c).TotalInstances() == a.TotalInstances() {
		t.Log("different seeds coincided on instance count (possible but unlikely)")
	}
}

func TestClassSetOps(t *testing.T) {
	var s ClassSet
	if !s.Empty() || s.Count() != 0 {
		t.Error("zero ClassSet not empty")
	}
	s = s.Add(3).Add(7).Add(3)
	if s.Count() != 2 || !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Errorf("ClassSet ops broken: %v", s)
	}
	var other ClassSet
	other = other.Add(7)
	if !s.Intersects(other) {
		t.Error("Intersects false despite shared class")
	}
	if s.Intersects(ClassSet(0).Add(5)) {
		t.Error("Intersects true without shared class")
	}
	cls := s.Classes()
	if len(cls) != 2 || cls[0] != 3 || cls[1] != 7 {
		t.Errorf("Classes() = %v, want [3 7]", cls)
	}
	if s.String() == "" || ClassSet(0).String() != "∅" {
		t.Error("String rendering broken")
	}
}

// Property: ClassSet Add/Has agree for all classes and sets.
func TestClassSetProperty(t *testing.T) {
	prop := func(mask uint16, c uint8) bool {
		s := ClassSet(mask & ((1 << NumClasses) - 1))
		cl := Class(c % NumClasses)
		return s.Add(cl).Has(cl) && s.Add(cl).Count() >= s.Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	if Class(0).String() != "audio" {
		t.Errorf("Class(0) = %q", Class(0).String())
	}
	if Class(200).String() != "invalid" {
		t.Errorf("Class(200) = %q", Class(200).String())
	}
}

func TestFullScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale universe in -short mode")
	}
	u := Generate(DefaultConfig())
	if u.NumPeers() != 37000 {
		t.Errorf("NumPeers = %d, want 37,000", u.NumPeers())
	}
	// Document count may truncate slightly if capacity runs dry, but must
	// be within 2% of the eDonkey 923,000.
	if u.NumDocs() < 904000 {
		t.Errorf("NumDocs = %d, want ≈923,000", u.NumDocs())
	}
	mean, single := u.CopyStats()
	if math.Abs(mean-1.28) > 0.05 {
		t.Errorf("mean copies %.3f, want ≈1.28", mean)
	}
	if math.Abs(single-0.89) > 0.02 {
		t.Errorf("single-copy fraction %.3f, want ≈0.89", single)
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := testConfig()
	for i := 0; i < b.N; i++ {
		_ = Generate(cfg)
	}
}

// Queries of 1–3 terms drawn from a document, probed against that document
// (a hit) and its successor (almost always a miss).
func BenchmarkDocMatches(b *testing.B) {
	u := Generate(testConfig())
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := DocID(i % (u.NumDocs() - 1))
		kws := u.Keywords(d)
		terms := kws[:1+i%min(3, len(kws))]
		if u.DocMatches(d, terms) {
			hits++
		}
		if u.DocMatches(d+1, terms) {
			hits++
		}
	}
	if hits < b.N {
		b.Fatalf("%d hits in %d self-probes", hits, b.N)
	}
}

// TestRankGuideMatchesBinarySearch: the guided sampler returns
// sort.SearchFloat64s's index (clamped to the last rank) at both ends of
// the table and beyond them, at every CDF knot and its floating-point
// neighbours, and at random points, for the default Zipf table and
// degenerate shapes.
func TestRankGuideMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, tc := range []struct {
		vocab int
		skew  float64
	}{{4000, 1.05}, {1, 1.05}, {2, 0}, {100, 0}, {1000, 3}, {64, 40}} {
		cum := make([]float64, tc.vocab)
		acc := 0.0
		for i := range cum {
			acc += 1 / math.Pow(float64(i+1), tc.skew)
			cum[i] = acc
		}
		g := newRankGuide(cum)
		check := func(x float64) {
			want := min(sort.SearchFloat64s(cum, x), len(cum)-1)
			if got := g.rank(x); got != want {
				t.Fatalf("vocab %d skew %v: rank(%v) = %d, want %d", tc.vocab, tc.skew, x, got, want)
			}
		}
		xs := []float64{0, acc, -acc, 2 * acc} // the last two: clamped ends
		for _, c := range cum {
			xs = append(xs, c)
		}
		for _, x := range xs {
			check(x)
			check(math.Nextafter(x, math.Inf(-1)))
			check(math.Nextafter(x, math.Inf(1)))
		}
		for i := 0; i < 100000; i++ {
			check(rng.Float64() * acc)
		}
	}
}

// TestPeerDocsDoNotAlias: every peer's list is its own, so appending to
// one (as a caller building on a profile might) leaves the others intact.
func TestPeerDocsDoNotAlias(t *testing.T) {
	u := genTest(t)
	before := make([][]DocID, u.NumPeers())
	for id := range before {
		before[id] = slices.Clone(u.Peer(PeerID(id)).Docs)
	}
	for id := range before {
		p := u.Peer(PeerID(id))
		p.Docs = append(p.Docs, DocID(1<<31))
	}
	for id, want := range before {
		got := u.Peer(PeerID(id)).Docs
		if !slices.Equal(got[:len(got)-1], want) || got[len(got)-1] != DocID(1<<31) {
			t.Fatalf("peer %d list changed by another peer's append: %v, want %v + sentinel", id, got, want)
		}
	}
}
