package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// perAdWarmUp is a Scheme whose Attach warms up through the general delivery
// path: every full ad delivered by deliverAll and stored at each wanting
// recipient through store, FIFO eviction included — the specification warmUp
// installs the outcome of.
type perAdWarmUp struct{ *Scheme }

func (r perAdWarmUp) Attach(sys *sim.System) { r.deliverAll(-1, r.bind(sys)) }

// sameWarmUp reports the first difference between a warmUp scheme and a
// perAdWarmUp one right after Attach: each node's fifo (snapshot aliasing,
// source, version, lastSeen) and minSeen, each holder table as a set of
// (holder, version) — slab indices and slot layout may differ — with every
// slot naming its own slab entry (checkIndex), and the whole ledger (warm-up
// row, message copies, drops).
func sameWarmUp(a, b *Scheme) error {
	got, want := cacheViews(a), cacheViews(b)
	for v := range want {
		if !slices.Equal(got[v], want[v]) {
			return fmt.Errorf("node %d caches diverged:\ngot  %v\nwant %v", v, got[v], want[v])
		}
		if ma, mb := a.nodes[v].minSeen, b.nodes[v].minSeen; ma != mb {
			return fmt.Errorf("node %d: minSeen %d, want %d", v, ma, mb)
		}
	}
	for src := range a.holders {
		ha, hb := &a.holders[src], &b.holders[src]
		if ha.n != hb.n {
			return fmt.Errorf("holders[%d]: %d vs %d holders", src, ha.n, hb.n)
		}
		for _, sl := range ha.slots {
			if sl.key == 0 {
				continue
			}
			if at := hb.find(overlay.NodeID(sl.key - 1)); at < 0 || hb.slots[at].ver != sl.ver {
				return fmt.Errorf("holders[%d]: node %d at version %d has no equal", src, sl.key-1, sl.ver)
			}
		}
	}
	for _, s := range []*Scheme{a, b} {
		if err := checkIndex(s); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(a.sys.Load, b.sys.Load) {
		return fmt.Errorf("load accounts diverged: warm-up %d vs %d bytes, %d vs %d drops",
			a.sys.Load.WarmupBytes(metrics.AllMask), b.sys.Load.WarmupBytes(metrics.AllMask),
			a.sys.Load.Total(metrics.CDrop), b.sys.Load.Total(metrics.CDrop))
	}
	return nil
}

// replayRest drives a stepper over the rest of the trace, as sim.Run does.
func replayRest(st *sim.Stepper, sch sim.Scheme) metrics.Summary {
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		for _, ev := range batch {
			st.Record(ev, sch.Search(ev))
		}
	}
	return st.Finish()
}

// TestWarmUpMatchesPerAdDelivery: the survivor install leaves exactly the
// state of delivering every warm-up ad through store (sameWarmUp), for every
// delivery kind over flat and super-peer overlays, without a fault plane and
// at 5 % loss, at a cache capacity most caches overflow and at the test
// configuration's. Both systems then replay the rest of the test trace and
// must agree on the summary and every final cache.
func TestWarmUpMatchesPerAdDelivery(t *testing.T) {
	for _, d := range DeliveryKinds {
		for _, tc := range []deliveryCase{{false, 1, 0, 0}, {true, 2, 0, 0}, {false, 3, 0.05, 0}, {true, 4, 0.05, 0}} {
			for _, capacity := range []int{12, testConfig(d).CacheCapacity} {
				name := fmt.Sprintf("asap-%s/%v/capacity=%d", d, tc, capacity)
				cfg := testConfig(d)
				cfg.CacheCapacity = capacity
				sysA, cfg := tc.system(cfg)
				sysB, _ := tc.system(cfg)
				a, b := New(cfg), perAdWarmUp{New(cfg)}
				sta, stb := sim.NewStepper(sysA, a, 0), sim.NewStepper(sysB, b, 0)
				if err := sameWarmUp(a, b.Scheme); err != nil {
					t.Fatalf("%s: after warm-up: %v", name, err)
				}
				cached, evicted := 0, 0
				for v := range b.nodes {
					if len(b.nodes[v].live()) > 0 {
						cached++
					}
					if len(b.nodes[v].free) > 0 {
						evicted++
					}
				}
				if capacity < 20 && 2*evicted <= cached {
					t.Fatalf("%s: only %d of %d caches evicted during warm-up", name, evicted, cached)
				}
				if got, want := replayRest(sta, a), replayRest(stb, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: replays diverged:\ngot  %+v\nwant %+v", name, got, want)
				}
				if !reflect.DeepEqual(cacheViews(a), cacheViews(b.Scheme)) {
					t.Fatalf("%s: caches diverged by the end of the replay", name)
				}
			}
		}
	}
}

// smallLab builds the small preset's inputs at seed (1,000 peers, a
// 1/10-scale content universe and trace over the reduced physical network)
// and returns a constructor of crawled-overlay systems over them with the
// preset's ASAP configuration for each delivery kind — the recipe of
// experiments.ScaleSmall, which core cannot import.
func smallLab(tb testing.TB, seed uint64) func(DeliveryKind) (*sim.System, Config) {
	tb.Helper()
	nc := netmodel.SmallConfig()
	nc.Seed = seed
	cc := content.DefaultConfig().Scaled(0.1)
	cc.Seed = seed
	tc := trace.DefaultConfig().Scaled(0.1)
	tc.Seed = seed
	net := netmodel.Generate(nc)
	u := content.Generate(cc)
	tr, err := trace.Build(u, tc)
	if err != nil {
		tb.Fatal(err)
	}
	return func(d DeliveryKind) (*sim.System, Config) {
		cfg := DefaultConfig(d).Scaled(0.1)
		cfg.Seed = seed
		cfg.RefreshPeriodSec = 30
		return sim.NewSystem(u, tr, overlay.Crawled, net, seed), cfg
	}
}

// fifoFingerprint is an FNV-64a hash of every node's cache in fifo order:
// per node its population, then (source, version, lastSeen) per entry.
func fifoFingerprint(s *Scheme) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for v := range s.nodes {
		put(uint64(len(s.nodes[v].live())))
		for _, e := range cacheEntries(s, overlay.NodeID(v)) {
			put(uint64(e.snap.src))
			put(uint64(e.snap.version))
			put(uint64(e.lastSeen))
		}
	}
	return h.Sum64()
}

// TestWarmUpFingerprint pins every node's cache right after Attach at the
// small preset, seeds 1–2, for each delivery kind. The constants were taken
// from the store-then-evict warm-up (every full ad stored at every wanting
// recipient through store, FIFO eviction included) before the direct
// survivor install replaced it; the RW and GSA ones were retaken when walk
// hops became identity-named choices (faults.Choose).
func TestWarmUpFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("small-preset labs in -short mode")
	}
	want := map[string]uint64{
		"asap-fld/seed=1": 0xfad738d7f4db993b,
		"asap-rw/seed=1":  0x4c89751e63657c31,
		"asap-gsa/seed=1": 0x6dfd234dbbcd40e9,
		"asap-fld/seed=2": 0x0b255aaa2142cc0b,
		"asap-rw/seed=2":  0x430a3b62cbca9c2a,
		"asap-gsa/seed=2": 0xa1025fdcb5196e34,
	}
	for _, seed := range []uint64{1, 2} {
		system := smallLab(t, seed)
		for _, d := range DeliveryKinds {
			sys, cfg := system(d)
			s := New(cfg)
			s.Attach(sys)
			name := fmt.Sprintf("asap-%s/seed=%d", d, seed)
			if got := fifoFingerprint(s); got != want[name] {
				t.Errorf("%s: fingerprint %#x, want %#x", name, got, want[name])
			}
		}
	}
}

// BenchmarkAttach is one warm-up at the small preset (seed 1): every initial
// representative's filter build and publication, then the delivery of their
// full ads into empty caches. Each iteration attaches a fresh system; building
// the system is not timed.
func BenchmarkAttach(b *testing.B) {
	system := smallLab(b, 1)
	for _, d := range []DeliveryKind{FLD, RW} {
		b.Run(fmt.Sprintf("delivery=%s", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, cfg := system(d)
				s := New(cfg)
				b.StartTimer()
				s.Attach(sys)
			}
		})
	}
}
