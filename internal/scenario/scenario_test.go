package scenario

import (
	"reflect"
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// TestScenarioShardWorkerDeterminism is the property gate over every
// registered scenario: it replays end to end (sequentially, like every
// replay) and its acts leave their fingerprints in the series. Byte-level
// reproducibility is pinned separately by TestGoldenReplay; -race checks
// that scenario directives and Attach's parallel filter builds share no
// state unsafely.
func TestScenarioShardWorkerDeterminism(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sn, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sn)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkActEffects(t, name, res)
		})
	}
}

// checkActEffects asserts, per built-in, that the acts actually bit: the
// adversarial machinery must leave its fingerprints in the ledger, not
// just replay cleanly.
func checkActEffects(t *testing.T, name string, res *Result) {
	t.Helper()
	partDrops := res.Load.Total(metrics.CPartDrop)
	switch name {
	case "partition-heal":
		if partDrops == 0 {
			t.Error("partition dropped no messages")
		}
		if res.Summary.Drops != partDrops {
			t.Errorf("loss-free scenario: total drops %d != partition drops %d", res.Summary.Drops, partDrops)
		}
	case "perfect-storm":
		if partDrops == 0 {
			t.Error("partition dropped no messages")
		}
		if res.Summary.Drops <= partDrops {
			t.Errorf("1%% loss added no drops beyond the partition's %d", partDrops)
		}
	case "interest-drift":
		if n := res.Load.Total(metrics.CInterestShift); n == 0 {
			t.Error("interest drift shifted no nodes")
		}
	case "rewire":
		if n := res.Load.Total(metrics.CRewire); n == 0 {
			t.Error("rewire adapted no edges")
		}
	case "churn-storm":
		live := slices.Index(res.Series.Columns, "live")
		act := res.Scenario.Acts[0]
		before := res.Series.Rows[act.AtMS/1000-1][live]
		minLive := before
		for sec := act.AtMS / 1000; sec <= (act.AtMS+act.DurationMS/2)/1000; sec++ {
			if v := res.Series.Rows[sec][live]; v < minLive {
				minLive = v
			}
		}
		if minLive >= before {
			t.Errorf("churn storm never dipped the live count (before %d, min %d)", before, minLive)
		}
		after := res.Series.Rows[(act.AtMS+act.DurationMS)/1000+1][live]
		if after <= minLive {
			t.Errorf("live count did not recover after the storm (min %d, after %d)", minLive, after)
		}
	}
}

// TestStageInjectsEvents checks the compiler's arithmetic without a
// replay: flash crowds add exactly Queries query events, churn storms add
// matched leave/join pairs inside their window, and directive acts add
// one Directive event each.
func TestStageInjectsEvents(t *testing.T) {
	plain, err := experiments.NewLab(mustScale(t, "tiny", 1))
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Tr.Stats()

	for _, tc := range []struct{ name string }{{"flash-crowd"}, {"churn-storm"}, {"partition-heal"}} {
		sn, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		lab, st, err := Build(sn)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := lab.Tr.Stats()
		switch tc.name {
		case "flash-crowd":
			if want := base.Queries + sn.Acts[0].Queries; got.Queries != want {
				t.Errorf("flash-crowd: %d queries, want %d", got.Queries, want)
			}
		case "churn-storm":
			extraLeaves := got.Leaves - base.Leaves
			extraJoins := got.Joins - base.Joins
			if extraLeaves == 0 || extraLeaves != extraJoins {
				t.Errorf("churn-storm: %d extra leaves, %d extra joins", extraLeaves, extraJoins)
			}
			seen := map[overlay.NodeID]int64{}
			a := sn.Acts[0]
			for _, ev := range lab.Tr.Events {
				if ev.Time < a.AtMS || ev.Time >= a.AtMS+a.DurationMS+1 {
					continue
				}
				switch ev.Kind {
				case trace.Leave:
					seen[ev.Node] = ev.Time
				case trace.Join:
					if lt, ok := seen[ev.Node]; ok && ev.Time <= lt {
						t.Errorf("node %d rejoins at %d before leaving at %d", ev.Node, ev.Time, lt)
					}
				}
			}
		case "partition-heal":
			nd := 0
			for _, ev := range lab.Tr.Events {
				if ev.Kind == trace.Directive {
					nd++
				}
			}
			if nd != 2 || len(st.ops) != 2 {
				t.Errorf("partition-heal: %d directive events, %d ops, want 2/2", nd, len(st.ops))
			}
		}
		// Staging must never reorder: events stay non-decreasing in time.
		prev := int64(0)
		for i, ev := range lab.Tr.Events {
			if ev.Time < prev {
				t.Fatalf("%s: merged trace out of order at %d", tc.name, i)
			}
			prev = ev.Time
		}
	}
}

// TestInertActsMatchBaseline: a scenario whose only act is a no-op
// (FreeRiders with Frac=0 clears an already-empty mask) must replay to
// the exact summary of the plain lab run — the directive plumbing itself
// consumes no randomness and perturbs nothing.
func TestInertActsMatchBaseline(t *testing.T) {
	sn := Scenario{
		Name: "inert", Scale: "tiny", Scheme: "asap-rw", Topo: "crawled", Seed: 1,
		Acts: []Act{{AtMS: 20_000, Kind: FreeRiders, Frac: 0}},
	}
	res, err := Run(sn)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := experiments.NewLab(mustScale(t, "tiny", 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := lab.Run("asap-rw", overlay.Crawled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Summary, want) {
		t.Errorf("inert scenario diverges from the plain run:\nscenario: %+v\nplain:    %+v", res.Summary, want)
	}
}

// TestVariantLabelsItsRun: a scenario whose scheme is a variant labels its
// summary and keys its series with the full name, so two scenarios that
// differ only in the variant do not share a series file.
func TestVariantLabelsItsRun(t *testing.T) {
	keys := map[string]bool{}
	for _, scheme := range []string{"asap-rw", "asap-rw+h=2"} {
		sn := Scenario{
			Name: "variant", Scale: "tiny", Scheme: scheme, Topo: "crawled", Seed: 1,
			Acts: []Act{{AtMS: 20_000, Kind: FreeRiders, Frac: 0}},
		}
		res, err := Run(sn)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Scheme != scheme {
			t.Errorf("%s: summary labelled %q", scheme, res.Summary.Scheme)
		}
		if want := "variant/" + scheme + "/crawled"; res.Series.Key != want {
			t.Errorf("%s: series key %q, want %q", scheme, res.Series.Key, want)
		}
		keys[res.Series.Key] = true
	}
	if len(keys) != 2 {
		t.Errorf("the two scenarios share a series key: %v", keys)
	}
}

func mustScale(t *testing.T, name string, seed uint64) experiments.Scale {
	t.Helper()
	sc, err := experiments.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = seed
	return sc
}

// TestValidateRejectsMalformed pins the validator's error surface.
func TestValidateRejectsMalformed(t *testing.T) {
	ok := Scenario{Name: "x", Scale: "tiny", Scheme: "asap-rw", Topo: "crawled",
		Acts: []Act{{AtMS: 1000, Kind: Partition}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	for _, tc := range []struct {
		label  string
		mutate func(*Scenario)
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }},
		{"slash in name", func(s *Scenario) { s.Name = "a/b" }},
		{"loss out of range", func(s *Scenario) { s.Loss = 1 }},
		{"no acts", func(s *Scenario) { s.Acts = nil }},
		{"negative time", func(s *Scenario) { s.Acts = []Act{{AtMS: -1, Kind: Heal}} }},
		{"out of order", func(s *Scenario) {
			s.Acts = []Act{{AtMS: 2000, Kind: Partition}, {AtMS: 1000, Kind: Heal}}
		}},
		{"heal without partition", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: Heal}} }},
		{"double partition", func(s *Scenario) {
			s.Acts = []Act{{AtMS: 0, Kind: Partition}, {AtMS: 1, Kind: Partition}}
		}},
		{"flash without queries", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: FlashCrowd}} }},
		{"flash class too big", func(s *Scenario) {
			s.Acts = []Act{{AtMS: 0, Kind: FlashCrowd, Queries: 1, Class: 99}}
		}},
		{"churn frac", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: ChurnStorm, Frac: 0, DurationMS: 1}} }},
		{"churn duration", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: ChurnStorm, Frac: 0.5}} }},
		{"free-rider frac", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: FreeRiders, Frac: 1.5}} }},
		{"drift shift", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: InterestDrift, Frac: 0.5}} }},
		{"rewire count", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: Rewire}} }},
		{"unknown kind", func(s *Scenario) { s.Acts = []Act{{AtMS: 0, Kind: "melt"}} }},
	} {
		sn := ok
		sn.Acts = append([]Act(nil), ok.Acts...)
		tc.mutate(&sn)
		if err := sn.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.label)
		}
	}
}

// TestRegistryWellFormed: every built-in validates, resolves by name, and
// the registry meets the acceptance floor of six scenarios covering all
// act kinds.
func TestRegistryWellFormed(t *testing.T) {
	if len(builtins) < 6 {
		t.Fatalf("only %d built-in scenarios, want ≥ 6", len(builtins))
	}
	covered := map[ActKind]bool{}
	for _, sn := range builtins {
		if err := sn.Validate(); err != nil {
			t.Errorf("built-in %s invalid: %v", sn.Name, err)
		}
		got, err := ByName(sn.Name)
		if err != nil || got.Name != sn.Name {
			t.Errorf("ByName(%s): %v", sn.Name, err)
		}
		for _, a := range sn.Acts {
			covered[a.Kind] = true
		}
	}
	for _, k := range []ActKind{Partition, Heal, FlashCrowd, ChurnStorm, FreeRiders, InterestDrift, Rewire} {
		if !covered[k] {
			t.Errorf("no built-in exercises %s", k)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := Resolve("no-such-scenario-or-file"); err == nil {
		t.Error("unresolvable argument accepted")
	}
}

// TestRotateClasses pins the drift rotation: count-preserving, in-range,
// and invertible by the complementary shift.
func TestRotateClasses(t *testing.T) {
	for _, set := range []uint16{0b1, 0b101, 0b10000000000011, 0b11111111111111} {
		s := content.ClassSet(set)
		for shift := 1; shift < 14; shift++ {
			r := rotateClasses(s, shift)
			if r.Count() != s.Count() {
				t.Errorf("rotate(%b, %d) changed the class count", set, shift)
			}
			if back := rotateClasses(r, 14-shift); back != s {
				t.Errorf("rotate(%b, %d) not inverted by %d: got %b", set, shift, 14-shift, back)
			}
		}
	}
}
