package trace

import (
	"math"
	"math/rand/v2"
	"testing"

	"asap/internal/content"
	"asap/internal/overlay"
)

func testUniverse() *content.Universe {
	c := content.DefaultConfig()
	c.NumPeers = 1500
	c.NumDocs = 40000
	return content.Generate(c)
}

func testTraceConfig() Config {
	c := DefaultConfig()
	c.NumNodes = 600
	c.NumQueries = 2500
	c.NumJoins = 80
	c.NumLeaves = 80
	return c
}

var (
	sharedU  = testUniverse()
	sharedTr *Trace
)

func buildShared(t *testing.T) *Trace {
	t.Helper()
	if sharedTr == nil {
		tr, err := Build(sharedU, testTraceConfig())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		sharedTr = tr
	}
	return sharedTr
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mods := []func(*Config){
		func(c *Config) { c.NumNodes = 1 },
		func(c *Config) { c.NumQueries = -1 },
		func(c *Config) { c.ContentChangeFrac = 1.2 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.TermsMin = 0 },
		func(c *Config) { c.TermsMax = 0 },
		func(c *Config) { c.NumLeaves = c.NumNodes },
	}
	for i, m := range mods {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed", i)
		}
	}
}

func TestScaledConfig(t *testing.T) {
	c := DefaultConfig().Scaled(0.1)
	if c.NumNodes != 1000 || c.NumQueries != 3000 || c.NumJoins != 100 {
		t.Errorf("Scaled(0.1) = %+v", c)
	}
	if c.Lambda != 8 || c.ContentChangeFrac != 0.10 {
		t.Error("Scaled must preserve rates and fractions")
	}
}

func TestBuildRejectsOversizedSelection(t *testing.T) {
	cfg := testTraceConfig()
	cfg.NumNodes = sharedU.NumPeers()
	cfg.NumJoins = 10
	if _, err := Build(sharedU, cfg); err == nil {
		t.Error("Build accepted selection larger than universe")
	}
}

func TestEventCountsNearConfig(t *testing.T) {
	tr := buildShared(t)
	cfg := testTraceConfig()
	s := tr.Stats()
	if s.Queries < cfg.NumQueries*95/100 || s.Queries > cfg.NumQueries {
		t.Errorf("Queries = %d, want ≈%d", s.Queries, cfg.NumQueries)
	}
	changes := s.ContentAdds + s.ContentRemoves
	want := float64(cfg.NumQueries) * cfg.ContentChangeFrac
	if math.Abs(float64(changes)-want) > want*0.3+10 {
		t.Errorf("content changes = %d, want ≈%.0f", changes, want)
	}
	if s.Joins != cfg.NumJoins {
		t.Errorf("Joins = %d, want %d", s.Joins, cfg.NumJoins)
	}
	if s.Leaves < cfg.NumLeaves*9/10 {
		t.Errorf("Leaves = %d, want ≈%d", s.Leaves, cfg.NumLeaves)
	}
}

func TestPoissonRate(t *testing.T) {
	tr := buildShared(t)
	s := tr.Stats()
	if math.Abs(s.QueryRatePerSec-8) > 1.0 {
		t.Errorf("realised query rate %.2f/s, want ≈8 (λ)", s.QueryRatePerSec)
	}
}

func TestEventsSortedByTime(t *testing.T) {
	tr := buildShared(t)
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time < tr.Events[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

// TestReplayInvariants re-walks the trace maintaining the same state the
// builder did and checks, for every query, the paper's guarantee: at least
// one matching document exists on a live node other than the requester at
// the request time, and the target is in the requester's interests.
func TestReplayInvariants(t *testing.T) {
	tr := buildShared(t)
	u := sharedU
	n := len(tr.Peers)

	live := make([]bool, n)
	docs := make([]map[content.DocID]bool, n)
	for i := 0; i < n; i++ {
		docs[i] = make(map[content.DocID]bool)
		for _, d := range u.Peer(tr.Peers[i]).Docs {
			docs[i][d] = true
		}
	}
	for i := 0; i < tr.InitialLive; i++ {
		live[i] = true
	}
	nextJoin := overlay.NodeID(tr.InitialLive)

	holders := map[content.DocID][]overlay.NodeID{}
	for i := 0; i < n; i++ {
		for d := range docs[i] {
			holders[d] = append(holders[d], overlay.NodeID(i))
		}
	}

	for idx := range tr.Events {
		ev := &tr.Events[idx]
		switch ev.Kind {
		case Query:
			if !live[ev.Node] {
				t.Fatalf("event %d: dead requester %d", idx, ev.Node)
			}
			if len(ev.Terms) < 1 || len(ev.Terms) > 3 {
				t.Fatalf("event %d: %d terms", idx, len(ev.Terms))
			}
			if !u.DocMatches(ev.Doc, ev.Terms) {
				t.Fatalf("event %d: target doc does not match its own terms", idx)
			}
			if !u.Peer(tr.Peers[ev.Node]).Interests.Has(u.ClassOf(ev.Doc)) {
				t.Fatalf("event %d: target class outside requester interests", idx)
			}
			ok := false
			for _, h := range holders[ev.Doc] {
				if h != ev.Node && live[h] && docs[h][ev.Doc] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("event %d: no live foreign holder for target doc", idx)
			}
		case ContentAdd:
			if docs[ev.Node][ev.Doc] {
				t.Fatalf("event %d: duplicate add", idx)
			}
			docs[ev.Node][ev.Doc] = true
			holders[ev.Doc] = append(holders[ev.Doc], ev.Node)
			if !u.Peer(tr.Peers[ev.Node]).Interests.Has(u.ClassOf(ev.Doc)) {
				t.Fatalf("event %d: node adds uninteresting doc", idx)
			}
		case ContentRemove:
			if !docs[ev.Node][ev.Doc] {
				t.Fatalf("event %d: removing absent doc", idx)
			}
			delete(docs[ev.Node], ev.Doc)
		case Join:
			if ev.Node != nextJoin {
				t.Fatalf("event %d: join out of order: %d, want %d", idx, ev.Node, nextJoin)
			}
			nextJoin++
			live[ev.Node] = true
		case Leave:
			if !live[ev.Node] {
				t.Fatalf("event %d: leave of dead node", idx)
			}
			live[ev.Node] = false
		}
	}
}

func TestQueryTermsSortedDistinct(t *testing.T) {
	tr := buildShared(t)
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Kind != Query {
			continue
		}
		for j := 1; j < len(ev.Terms); j++ {
			if ev.Terms[j-1] >= ev.Terms[j] {
				t.Fatalf("event %d terms not strictly ascending: %v", i, ev.Terms)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Build(sharedU, testTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(sharedU, testTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if x.Time != y.Time || x.Kind != y.Kind || x.Node != y.Node || x.Doc != y.Doc {
			t.Fatalf("event %d differs", i)
		}
	}
	cfg := testTraceConfig()
	cfg.Seed = 77
	c, err := Build(sharedU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) == len(a.Events) && c.Events[0].Node == a.Events[0].Node && c.Events[0].Doc == a.Events[0].Doc {
		t.Log("different seed produced same head; unlikely but possible")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Query: "query", ContentAdd: "content-add", ContentRemove: "content-remove", Join: "join", Leave: "leave", Directive: "directive", Kind(99): "invalid"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), s)
		}
	}
}

func TestStatsString(t *testing.T) {
	tr := buildShared(t)
	if s := tr.Stats().String(); s == "" {
		t.Error("empty stats string")
	}
	var empty Trace
	if empty.Span() != 0 {
		t.Error("empty trace has nonzero span")
	}
}

func TestNodeSet(t *testing.T) {
	var s nodeSet
	s.init(10)
	rng := rand.New(rand.NewPCG(1, 1))
	if s.random(rng) != -1 {
		t.Error("random on empty set should be -1")
	}
	s.add(3)
	s.add(7)
	s.add(3) // dup
	if s.len() != 2 || !s.has(3) || !s.has(7) || s.has(5) {
		t.Errorf("set state wrong: len=%d", s.len())
	}
	s.remove(3)
	if s.has(3) || s.len() != 1 {
		t.Error("remove failed")
	}
	s.remove(3) // absent
	if s.len() != 1 {
		t.Error("double remove corrupted set")
	}
	if got := s.random(rng); got != 7 {
		t.Errorf("random = %d, want 7", got)
	}
}

func BenchmarkBuild(b *testing.B) {
	cfg := testTraceConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sharedU, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
