package asap

import (
	"reflect"
	"runtime"
	"testing"
)

func newTestCluster(t *testing.T, scheme string) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Nodes: 200, Reserve: 10, Scheme: scheme, Seed: 7})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 1}); err == nil {
		t.Error("accepted a 1-node cluster")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 50, Scheme: "bogus"}); err == nil {
		t.Error("accepted bogus scheme")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 10_000_000}); err == nil {
		t.Error("accepted cluster larger than any universe")
	}
}

func TestClusterBasics(t *testing.T) {
	c := newTestCluster(t, "asap-rw")
	if c.NumNodes() != 210 || c.LiveCount() != 200 {
		t.Errorf("sizes: total=%d live=%d", c.NumNodes(), c.LiveCount())
	}
	if c.SchemeName() != "asap-rw" {
		t.Errorf("scheme %q", c.SchemeName())
	}
	if c.Now() != 0 {
		t.Error("fresh cluster clock nonzero")
	}
	c.Advance(3)
	if c.Now() != 3000 {
		t.Errorf("Now = %d after Advance(3)", c.Now())
	}
}

func TestClusterSearchFindsSharedDoc(t *testing.T) {
	c := newTestCluster(t, "asap-fld")
	succ := 0
	for i := 0; i < 50; i++ {
		n, d, ok := c.RandomQuery()
		if !ok {
			t.Fatal("RandomQuery found nothing")
		}
		if res := c.SearchForDoc(n, d, 2); res.Success {
			succ++
			if res.ResponseMS <= 0 {
				t.Fatal("non-positive response on success")
			}
		}
	}
	if succ < 30 {
		t.Errorf("only %d/50 searches succeeded on a warmed ASAP(FLD) cluster", succ)
	}
	sum := c.Stats()
	if sum.Requests != 50 {
		t.Errorf("stats requests = %d", sum.Requests)
	}
}

func TestClusterContentLifecycle(t *testing.T) {
	c := newTestCluster(t, "asap-fld")
	// Find a node and a doc it does not share but is interested in.
	var node NodeID = -1
	var doc DocID
	for n := 0; n < c.NumNodes() && node < 0; n++ {
		if !c.Alive(NodeID(n)) {
			continue
		}
		for d := 0; d < c.NumDocs(); d++ {
			if c.Interests(NodeID(n)).Has(c.ClassOf(DocID(d))) && !hasDoc(c, NodeID(n), DocID(d)) {
				node, doc = NodeID(n), DocID(d)
				break
			}
		}
	}
	if node < 0 {
		t.Fatal("no addable (node, doc) pair")
	}
	before := len(c.Docs(node))
	c.AddDocument(node, doc)
	if len(c.Docs(node)) != before+1 {
		t.Fatal("AddDocument did not add")
	}
	// Another interested node should now find it via ASAP.
	found := false
	for n := 0; n < c.NumNodes(); n++ {
		if NodeID(n) == node || !c.Alive(NodeID(n)) || !c.Interests(NodeID(n)).Has(c.ClassOf(doc)) {
			continue
		}
		if res := c.SearchForDoc(NodeID(n), doc, 2); res.Success {
			found = true
			break
		}
	}
	if !found {
		t.Error("no peer found the freshly added document")
	}
	c.RemoveDocument(node, doc)
	if len(c.Docs(node)) != before {
		t.Fatal("RemoveDocument did not remove")
	}
}

func hasDoc(c *Cluster, n NodeID, d DocID) bool {
	for _, x := range c.Docs(n) {
		if x == d {
			return true
		}
	}
	return false
}

func TestClusterChurn(t *testing.T) {
	c := newTestCluster(t, "asap-rw")
	joiner := NodeID(205) // reserve
	if err := c.Join(joiner); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !c.Alive(joiner) || c.LiveCount() != 201 {
		t.Error("join not effective")
	}
	if err := c.Join(joiner); err == nil {
		t.Error("double join accepted")
	}
	if err := c.Leave(joiner); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if c.Alive(joiner) || c.LiveCount() != 200 {
		t.Error("leave not effective")
	}
	if err := c.Leave(joiner); err == nil {
		t.Error("double leave accepted")
	}
}

func TestClusterWithBaselineScheme(t *testing.T) {
	c := newTestCluster(t, "flooding")
	n, d, ok := c.RandomQuery()
	if !ok {
		t.Fatal("no query")
	}
	res := c.SearchForDoc(n, d, 1)
	if !res.Success {
		t.Error("flooding failed on a live target in a connected cluster")
	}
	sum := c.Stats()
	if sum.Scheme != "flooding" {
		t.Errorf("summary scheme %q", sum.Scheme)
	}
}

func TestClusterExplicitASAPConfig(t *testing.T) {
	cfg := ClusterConfig{Nodes: 100, Scheme: "asap-rw", Seed: 3}
	custom := ASAPConfig{
		FloodTTL: 4, Walkers: 3, BudgetUnit: 100, UpdateBudgetDiv: 4,
		AdsRequestHops: 2, MaxConfirms: 3, MinResults: 1, CacheCapacity: 64,
		RefreshPeriodSec: 30, StaleFactor: 2, MaxAdsPerReply: 16, Seed: 3,
	}
	cfg.ASAP = &custom
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster with custom ASAP config: %v", err)
	}
	if c.SchemeName() != "asap-rw" {
		t.Error("custom config lost scheme")
	}
	// ASAP config with a baseline scheme is an error.
	cfg.Scheme = "flooding"
	if _, err := NewCluster(cfg); err == nil {
		t.Error("ASAP config accepted for baseline scheme")
	}
}

func TestClusterAdvanceAccountsLoad(t *testing.T) {
	c := newTestCluster(t, "asap-rw")
	for i := 0; i < 30; i++ {
		if n, d, ok := c.RandomQuery(); ok {
			c.SearchForDoc(n, d, 1)
		}
		c.Advance(2)
	}
	sum := c.Stats()
	if len(sum.LoadSeries) == 0 {
		t.Error("no load series after advancing")
	}
}

func TestClusterSuperPeerHierarchy(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 300, Reserve: 20, Topology: SuperPeer, Scheme: "asap-rw", Seed: 13})
	if err != nil {
		t.Fatalf("NewCluster(SuperPeer): %v", err)
	}
	succ, total := 0, 0
	for i := 0; i < 60; i++ {
		node, doc, ok := c.RandomQuery()
		if !ok {
			continue
		}
		total++
		if c.SearchForDoc(node, doc, 2).Success {
			succ++
		}
		if i%5 == 0 {
			c.Advance(1)
		}
	}
	if total == 0 {
		t.Fatal("no queries issued")
	}
	if rate := float64(succ) / float64(total); rate < 0.5 {
		t.Errorf("super-peer cluster success %.2f", rate)
	}
	// Churn a node; the hierarchy must keep working.
	if err := c.Join(NodeID(305)); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if n, d, ok := c.RandomQuery(); ok {
		c.SearchForDoc(n, d, 1)
	}
	sum := c.Stats()
	if sum.Topology != "superpeer" {
		t.Errorf("topology label %q", sum.Topology)
	}
}

// TestSingleRunIndependentOfGOMAXPROCS: the public single-run API — a
// Lab's Run and RunExperiment — is a pure function of (preset, seed): the
// same summary at every core count, not only inside the matrix.
func TestSingleRunIndependentOfGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	lab, err := NewLab(ScaleTiny())
	if err != nil {
		t.Fatal(err)
	}
	var want Summary
	for i, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		viaLab, err := lab.Run("asap-rw", Crawled)
		if err != nil {
			t.Fatal(err)
		}
		viaAPI, err := RunExperiment("tiny", "asap-rw", Crawled)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = viaLab
		}
		if !reflect.DeepEqual(want, viaLab) {
			t.Errorf("GOMAXPROCS=%d: Lab.Run diverges from GOMAXPROCS=1:\n%+v\n%+v", procs, want, viaLab)
		}
		if !reflect.DeepEqual(want, viaAPI) {
			t.Errorf("GOMAXPROCS=%d: RunExperiment diverges from GOMAXPROCS=1:\n%+v\n%+v", procs, want, viaAPI)
		}
	}
}

func TestRunExperimentAndTopologyByName(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab run in -short mode")
	}
	sum, err := RunExperiment("tiny", "asap-rw", Crawled)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if sum.Requests == 0 || sum.SuccessRate == 0 {
		t.Errorf("empty summary: %+v", sum)
	}
	if _, err := RunExperiment("bogus", "asap-rw", Crawled); err == nil {
		t.Error("bogus scale accepted")
	}
	if _, err := RunExperiment("tiny", "bogus", Crawled); err == nil {
		t.Error("bogus scheme accepted")
	}
	for _, name := range []string{"random", "powerlaw", "crawled"} {
		k, err := TopologyByName(name)
		if err != nil || k.String() != name {
			t.Errorf("TopologyByName(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := TopologyByName("mesh"); err == nil {
		t.Error("bogus topology accepted")
	}
}
