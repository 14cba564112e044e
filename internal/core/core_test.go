package core

import (
	"testing"

	"asap/internal/bloom"
	"asap/internal/content"
	"asap/internal/overlay"
)

func TestDeliveryKindString(t *testing.T) {
	want := map[DeliveryKind]string{FLD: "fld", RW: "rw", GSAKind: "gsa", DeliveryKind(9): "invalid"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("DeliveryKind(%d) = %q, want %q", k, k.String(), s)
		}
	}
	if len(DeliveryKinds) != 3 {
		t.Error("DeliveryKinds must list the paper's three variants")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, d := range DeliveryKinds {
		if err := DefaultConfig(d).Validate(); err != nil {
			t.Errorf("default %v config invalid: %v", d, err)
		}
	}
	mods := []func(*Config){
		func(c *Config) { c.Delivery = 9 },
		func(c *Config) { c.FloodTTL = 0 },
		func(c *Config) { c.Walkers = 0 },
		func(c *Config) { c.BudgetUnit = 0 },
		func(c *Config) { c.AdsRequestHops = -1 },
		func(c *Config) { c.MaxConfirms = 0 },
		func(c *Config) { c.CacheCapacity = 0 },
		func(c *Config) { c.CacheCapacity = maxCacheCapacity + 1 },
		func(c *Config) { c.RefreshPeriodSec = -5 },
		func(c *Config) { c.StaleFactor = 0 },
		func(c *Config) { c.MaxAdsPerReply = 0 },
	}
	for i, m := range mods {
		c := DefaultConfig(RW)
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed", i)
		}
	}
}

func TestConfigScaled(t *testing.T) {
	c := DefaultConfig(RW).Scaled(0.2)
	if c.BudgetUnit != 600 || c.CacheCapacity != 400 {
		t.Errorf("Scaled(0.2) = budget %d cap %d, want 600/400", c.BudgetUnit, c.CacheCapacity)
	}
	if c.FloodTTL != 6 || c.Walkers != 5 {
		t.Error("Scaled must not touch algorithmic parameters")
	}
	defer func() {
		if recover() == nil {
			t.Error("Scaled(2) did not panic")
		}
	}()
	DefaultConfig(RW).Scaled(2)
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

func snap(src overlay.NodeID, version uint16, topics content.ClassSet) *adSnapshot {
	f := bloom.NewDefault()
	f.AddKey(uint64(version)) // distinct contents per version
	return &adSnapshot{src: src, version: version, topics: topics, filter: f, fullWire: f.WireSize(), patchWire: 8}
}

func TestStoreFullAndReplace(t *testing.T) {
	c := newCaches(16, 10)
	a1 := snap(5, 1, 1)
	if got := c.store(0, a1, adFull, 100); got != storedOK {
		t.Fatalf("store full = %v", got)
	}
	if e := c.entry(0, 5); e.snap != a1 || e.lastSeen != 100 {
		t.Fatal("entry not cached")
	}
	a2 := snap(5, 2, 1)
	c.store(0, a2, adFull, 200)
	if c.entry(0, 5).snap != a2 {
		t.Fatal("newer full did not replace")
	}
	// An older full arriving late must not clobber the newer one.
	c.store(0, a1, adFull, 300)
	if c.entry(0, 5).snap != a2 {
		t.Fatal("stale full clobbered newer version")
	}
	if c.entry(0, 5).lastSeen != 300 {
		t.Fatal("stale full should still bump freshness")
	}
	if len(c.nodes[0].live()) != 1 {
		t.Fatalf("fifo length %d, want 1 (one source)", len(c.nodes[0].live()))
	}
}

func TestStorePatchSemantics(t *testing.T) {
	c := newCaches(16, 10)
	// Patch for an unknown source is ignored.
	if got := c.store(0, snap(7, 2, 1), adPatch, 0); got != storedIgnored {
		t.Fatalf("patch on empty cache = %v, want ignored", got)
	}
	c.store(0, snap(7, 1, 1), adFull, 0)
	// Sequential patch advances.
	p2 := snap(7, 2, 1)
	if got := c.store(0, p2, adPatch, 10); got != storedOK {
		t.Fatalf("sequential patch = %v", got)
	}
	if c.entry(0, 7).snap != p2 {
		t.Fatal("patch did not advance snapshot")
	}
	// Version gap demands a full fetch.
	if got := c.store(0, snap(7, 5, 1), adPatch, 20); got != storedGap {
		t.Fatal("gap not detected")
	}
	// Old patch re-delivered: freshness only.
	if got := c.store(0, snap(7, 1, 1), adPatch, 30); got != storedOK {
		t.Fatal("stale patch should be absorbed")
	}
	if c.entry(0, 7).snap != p2 {
		t.Fatal("stale patch rewound the snapshot")
	}
}

func TestStoreRefreshSemantics(t *testing.T) {
	c := newCaches(16, 10)
	if got := c.store(0, snap(3, 1, 1), adRefresh, 0); got != storedIgnored {
		t.Fatal("refresh for unknown source should be ignored")
	}
	a := snap(3, 1, 1)
	c.store(0, a, adFull, 0)
	if got := c.store(0, snap(3, 1, 1), adRefresh, 50); got != storedOK {
		t.Fatal("same-version refresh failed")
	}
	if c.entry(0, 3).lastSeen != 50 {
		t.Fatal("refresh did not bump freshness")
	}
	if got := c.store(0, snap(3, 4, 1), adRefresh, 60); got != storedGap {
		t.Fatal("refresh with newer version must signal a gap")
	}
}

func TestVersionWrapAround(t *testing.T) {
	if !newerVersion(0, 65535) {
		t.Error("0 must be newer than 65535 under serial arithmetic")
	}
	if newerVersion(65535, 0) {
		t.Error("65535 must be older than 0")
	}
	if newerVersion(5, 5) {
		t.Error("equal versions are not newer")
	}
	c := newCaches(16, 10)
	c.store(0, snap(1, 65535, 1), adFull, 0)
	if got := c.store(0, snap(1, 0, 1), adPatch, 1); got != storedOK {
		t.Errorf("wrap-around patch = %v, want stored", got)
	}
}

func TestFIFOEviction(t *testing.T) {
	c := newCaches(16, 3)
	for i := 0; i < 5; i++ {
		c.store(0, snap(overlay.NodeID(i), 1, 1), adFull, int64(i))
	}
	if len(c.nodes[0].live()) != 3 {
		t.Fatalf("cache size %d, want capacity 3", len(c.nodes[0].live()))
	}
	// Oldest insertions (0, 1) must be gone.
	for _, gone := range []overlay.NodeID{0, 1} {
		if c.entry(0, gone) != nil {
			t.Errorf("source %d survived FIFO eviction", gone)
		}
	}
	for _, kept := range []overlay.NodeID{2, 3, 4} {
		if c.entry(0, kept) == nil {
			t.Errorf("source %d evicted out of order", kept)
		}
	}
}

func TestDropStale(t *testing.T) {
	c := newCaches(16, 10)
	c.store(0, snap(1, 1, 1), adFull, 100)
	c.store(0, snap(2, 1, 1), adFull, 500)
	c.dropStale(0, 300)
	if c.entry(0, 1) != nil {
		t.Error("stale entry survived")
	}
	if c.entry(0, 2) == nil {
		t.Error("fresh entry dropped")
	}
	if len(c.nodes[0].live()) != 1 {
		t.Errorf("fifo length %d after dropStale, want 1", len(c.nodes[0].live()))
	}
}

func TestTopicsFromCounts(t *testing.T) {
	var ns nodeState
	ns.classCnt[2] = 3
	ns.classCnt[9] = 1
	s := ns.topicsFromCounts()
	if !s.Has(2) || !s.Has(9) || s.Count() != 2 {
		t.Errorf("topics = %v", s)
	}
}

func TestWireBytesByKind(t *testing.T) {
	a := snap(1, 1, 1)
	full, patch, refresh := a.wireBytes(adFull), a.wireBytes(adPatch), a.wireBytes(adRefresh)
	if full <= patch || patch <= refresh {
		t.Errorf("wire sizes not ordered: full=%d patch=%d refresh=%d", full, patch, refresh)
	}
}
