package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/transport"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
	labErr  error

	warmOnce sync.Once
	warmN    *Node
	warmRec  *obs.Recorder
	warmErr  error
)

// tinyLab builds (once) the tiny-preset lab shared by every test.
func tinyLab(t testing.TB) *experiments.Lab {
	t.Helper()
	labOnce.Do(func() { lab, labErr = experiments.NewLab(experiments.ScaleTiny()) })
	if labErr != nil {
		t.Fatalf("building tiny lab: %v", labErr)
	}
	return lab
}

// sharedWarmNode builds (once) a fully warm serving node shared by the
// read-only tests: Search mutates nothing, so they can't interfere.
func sharedWarmNode(t testing.TB) *Node {
	t.Helper()
	l := tinyLab(t)
	warmOnce.Do(func() {
		warmN, warmRec, warmErr = Warm(l, "asap-rw", overlay.Random, Config{Workers: 4, MaxQueue: 16})
	})
	if warmErr != nil {
		t.Fatalf("warming node: %v", warmErr)
	}
	return warmN
}

// coldNode builds a fresh attached-but-unreplayed node for admission
// tests, which only exercise the control plane.
func coldNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	l := tinyLab(t)
	sch := core.New(l.Scale.ASAPConfig(core.RW))
	sys := sim.NewSystem(l.U, l.Tr, overlay.Random, l.Net, l.Scale.Seed)
	sim.NewStepper(sys, sch, 0) // attach + warm-up only
	return NewNode(sys, sch, cfg)
}

// liveQuery returns a catalog entry whose issuing node is alive on n.
func liveQuery(t *testing.T, n *Node) CatalogEntry {
	t.Helper()
	cat := BuildCatalog(n.sys.Tr, func(id overlay.NodeID) bool { return n.sys.G.Alive(id) })
	if len(cat) == 0 {
		t.Fatal("no live catalog entries")
	}
	return cat[0]
}

// TestServeConcurrentOracle is the serving plane's -race property test:
// serving goroutines hammer Search while state events (churn, content,
// ticks) apply through the write side. Every served answer must equal,
// bit for bit, the quiescent SearchRO answer computed inside the closed
// section that produced the answer's epoch — i.e. concurrent reads never
// observe a torn store. Ticks go through Node.Tick itself, whose refresh
// walks and floods reach their nodes before the gate closes, so under
// -race any write made while readers are inside fails the test. Chained
// with core's TestSearchROMatchesOracle (quiescent SearchRO ≡ the scalar
// map-and-loop oracle), this pins every concurrent answer to the scalar
// oracle at its epoch.
func TestServeConcurrentOracle(t *testing.T) {
	for _, d := range []core.DeliveryKind{core.RW, core.GSAKind, core.FLD} {
		t.Run("asap-"+d.String(), func(t *testing.T) { concurrentOracle(t, d) })
	}
}

func concurrentOracle(t *testing.T, d core.DeliveryKind) {
	l := tinyLab(t)

	// Warm on a prefix of the trace; the suffix's state events become the
	// live apply stream.
	evs := l.Tr.Events
	split := len(evs) * 2 / 3
	prefix := *l.Tr
	prefix.Events = evs[:split]
	sch := core.New(l.Scale.ASAPConfig(d))
	sys := sim.NewSystem(l.U, &prefix, overlay.Random, l.Net, l.Scale.Seed)
	st := sim.NewStepper(sys, sch, 0)
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		for _, ev := range batch {
			st.Record(ev, sch.Search(ev))
		}
	}
	st.Finish()
	n := NewNode(sys, sch, Config{Workers: 4, MaxQueue: 8})

	// The suffix state events to apply live (bounded for test time).
	var suffix []*trace.Event
	for i := split; i < len(evs) && len(suffix) < 200; i++ {
		if evs[i].Kind != trace.Query {
			suffix = append(suffix, &evs[i])
		}
	}
	if len(suffix) < 20 {
		t.Fatalf("only %d suffix state events; trace too small for the test", len(suffix))
	}

	// Probe queries: the suffix's first queries.
	var probes []CatalogEntry
	for i := split; i < len(evs) && len(probes) < 6; i++ {
		if evs[i].Kind == trace.Query {
			probes = append(probes, CatalogEntry{From: evs[i].Node, Terms: evs[i].Terms})
		}
	}

	// answers[k][q] is probe q's quiescent answer after the k-th write
	// section, computed inside it — so it happens-before any read section
	// observing epoch 2k.
	ticks := int((evs[len(evs)-1].Time-prefix.Span())/1000) + 2
	answers := make([][][]overlay.NodeID, len(suffix)+ticks+2)
	oracle := core.NewServeScratch()
	applies := 1
	compute := func() {
		answers[applies] = make([][]overlay.NodeID, len(probes))
		for qi, q := range probes {
			_, out := sch.SearchRO(q.From, q.Terms, n.Now(), oracle, nil)
			answers[applies][qi] = out
		}
	}
	n.Apply(prefix.Span(), compute)
	n.onTick = compute

	var done atomic.Bool
	var mismatches atomic.Int64
	var checks atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var dst []overlay.NodeID
			for i := r; !done.Load(); i++ {
				q := probes[i%len(probes)]
				_, out, epoch, err := n.Search(q.From, q.Terms, dst[:0])
				dst = out
				if err != nil {
					continue // queue overflow under contention is legal
				}
				want := answers[epoch/2]
				if want == nil {
					t.Errorf("no oracle for epoch %d", epoch)
					mismatches.Add(1)
					return
				}
				if !reflect.DeepEqual(append([]overlay.NodeID{}, out...), append([]overlay.NodeID{}, want[i%len(probes)]...)) {
					mismatches.Add(1)
					t.Errorf("epoch %d probe %d: got %v, want %v", epoch, i%len(probes), out, want[i%len(probes)])
					return
				}
				checks.Add(1)
			}
		}(r)
	}

	nextTick := prefix.Span()/1000*1000 + 1000
	for _, ev := range suffix {
		for nextTick <= ev.Time {
			applies++
			n.Tick(nextTick)
			nextTick += 1000
		}
		applies++
		n.Apply(ev.Time, func() {
			sim.ApplyStateEvent(sys, sch, ev)
			compute()
		})
	}
	// Keep serving briefly against the final state.
	time.Sleep(20 * time.Millisecond)
	done.Store(true)
	wg.Wait()

	if got := n.Epoch(); got != uint64(2*applies) {
		t.Fatalf("epoch %d after %d applies, want %d", got, applies, 2*applies)
	}
	if got := n.Now(); got < nextTick-1000 {
		t.Fatalf("clock at %d after a tick at %d", got, nextTick-1000)
	}
	if mismatches.Load() != 0 {
		t.Fatalf("%d mismatched answers", mismatches.Load())
	}
	if checks.Load() < 100 {
		t.Fatalf("only %d concurrent checks ran; test under-exercised", checks.Load())
	}
}

func TestAdmissionThrottle(t *testing.T) {
	n := coldNode(t, Config{Workers: 2, Rate: 1, Burst: 1})
	q := liveQuery(t, n)
	if _, _, _, err := n.Search(q.From, q.Terms, nil); err != nil {
		t.Fatalf("first search: %v", err)
	}
	if _, _, _, err := n.Search(q.From, q.Terms, nil); !errors.Is(err, ErrThrottled) {
		t.Fatalf("second search: %v, want ErrThrottled", err)
	}
	if n.Stats().ShedRate.Load() != 1 || n.Stats().Served.Load() != 1 {
		t.Fatalf("stats served=%d shedRate=%d", n.Stats().Served.Load(), n.Stats().ShedRate.Load())
	}
}

func TestAdmissionQueueOverflowAndDrain(t *testing.T) {
	n := coldNode(t, Config{Workers: 1, MaxQueue: 1})
	q := liveQuery(t, n)

	// Hold the write section open so an admitted search parks inside the
	// gate with the only worker slot claimed.
	applyIn, release := make(chan struct{}), make(chan struct{})
	go n.Apply(n.Now(), func() { applyIn <- struct{}{}; <-release })
	<-applyIn

	res1 := make(chan error, 1)
	go func() {
		_, _, _, err := n.Search(q.From, q.Terms, nil)
		res1 <- err
	}()
	for len(n.ctxs) != 0 { // wait until the slot is taken
		time.Sleep(time.Millisecond)
	}
	res2 := make(chan error, 1)
	go func() {
		_, _, _, err := n.Search(q.From, q.Terms, nil)
		res2 <- err
	}()
	for n.waiting.Load() != 1 { // wait until it queues
		time.Sleep(time.Millisecond)
	}
	if _, _, _, err := n.Search(q.From, q.Terms, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third search: %v, want ErrOverloaded", err)
	}
	close(release)
	if err := <-res1; err != nil {
		t.Fatalf("first search: %v", err)
	}
	if err := <-res2; err != nil {
		t.Fatalf("queued search: %v", err)
	}

	n.Drain()
	if _, _, _, err := n.Search(q.From, q.Terms, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain search: %v, want ErrDraining", err)
	}
	if n.Stats().Shed() != 2 {
		t.Fatalf("shed total %d, want 2", n.Stats().Shed())
	}
}

func TestHTTPEndpoint(t *testing.T) {
	n := sharedWarmNode(t)
	srv := httptest.NewServer(NewHTTP(n, warmRec).Handler())
	defer srv.Close()
	q := liveQuery(t, n)

	// Direct answer for comparison (the store is quiescent here).
	_, want, _, err := n.Search(q.From, q.Terms, nil)
	if err != nil {
		t.Fatalf("direct search: %v", err)
	}

	body, _ := json.Marshal(SearchRequest{From: uint32(q.From), Terms: kwU32(q.Terms)})
	resp, err := http.Post(srv.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /search: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if sr.Epoch%2 != 0 {
		t.Errorf("odd epoch %d", sr.Epoch)
	}
	if !reflect.DeepEqual(sr.Sources, idU32(want)) && (len(sr.Sources) != 0 || len(want) != 0) {
		t.Errorf("sources %v, want %v", sr.Sources, want)
	}

	// Unknown peer → 400.
	body, _ = json.Marshal(SearchRequest{From: 1 << 30})
	resp2, err := http.Post(srv.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown peer status %d, want 400", resp2.StatusCode)
	}

	// /metrics serves the exposition with both planes' families.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, fam := range []string{"asap_serve_served_total", "asap_serve_wall_seconds_bucket", "asap_searches_total", "asap_search_response_seconds_count"} {
		if !bytes.Contains(buf.Bytes(), []byte(fam)) {
			t.Errorf("/metrics missing %s", fam)
		}
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", hresp.StatusCode)
	}
}

func TestBinaryEndpoint(t *testing.T) {
	n := sharedWarmNode(t)
	ln, err := transport.Mem{}.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinary(n, ln)
	go bs.Serve()
	defer bs.Close()

	c, err := transport.Mem{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := liveQuery(t, n)
	_, want, _, err := n.Search(q.From, q.Terms, nil)
	if err != nil {
		t.Fatalf("direct search: %v", err)
	}

	req := transport.ServeQuery{From: uint32(q.From), Terms: kwU32(q.Terms)}
	if err := c.WriteFrame(transport.MServeQuery, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	mt, p, err := c.ReadFrame()
	if err != nil || mt != transport.MServeOK {
		t.Fatalf("reply type %v err %v", mt, err)
	}
	reply, err := transport.DecodeServeReply(p)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Epoch%2 != 0 {
		t.Errorf("odd epoch %d", reply.Epoch)
	}
	if !reflect.DeepEqual(reply.Sources, idU32(want)) && (len(reply.Sources) != 0 || len(want) != 0) {
		t.Errorf("sources %v, want %v", reply.Sources, want)
	}

	// Out-of-range peer → bad-request error frame.
	bad := transport.ServeQuery{From: 1 << 30}
	if err := c.WriteFrame(transport.MServeQuery, bad.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	mt, p, err = c.ReadFrame()
	if err != nil || mt != transport.MServeErr || len(p) != 1 || p[0] != transport.ServeErrBadRequest {
		t.Fatalf("bad query reply: type %v payload %v err %v", mt, p, err)
	}

	// Bye handshake.
	if err := c.WriteFrame(transport.MServeBye, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err = c.ReadFrame(); err != nil || mt != transport.MServeByeOK {
		t.Fatalf("bye reply: type %v err %v", mt, err)
	}
}

// TestServeSearchAllocs is the serving-plane zero-alloc gate (wired into
// `make bench-serve`): once the pooled scratch and result buffer are
// warm, a served search — admission, slot acquisition, gated SearchRO,
// stats — must not allocate at all.
func TestServeSearchAllocs(t *testing.T) {
	n := sharedWarmNode(t)
	q := liveQuery(t, n)
	var dst []overlay.NodeID
	run := func() {
		_, out, _, err := n.Search(q.From, q.Terms, dst[:0])
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		dst = out
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if a := testing.AllocsPerRun(50, run); a != 0 {
		t.Errorf("served search allocates %.1f times, want 0", a)
	}
}

// TestNodeTickAllocs is the serving writer's zero-alloc gate (wired into
// `make alloc-gate`): once a full refresh period has grown the delivery
// scratch, a Node.Tick — writer lock, the scheme's tick under its fence,
// the gate's close and reopen — must not allocate, so no tick builds a
// closure.
func TestNodeTickAllocs(t *testing.T) {
	n := coldNode(t, Config{Workers: 2})
	period := int64(n.sch.Config().RefreshPeriodSec)
	now := int64(0)
	tick := func() {
		now += 1000
		n.Tick(now)
	}
	for i := int64(0); i < period; i++ {
		tick()
	}
	before := n.Epoch()
	if a := testing.AllocsPerRun(int(period), tick); a != 0 {
		t.Errorf("Node.Tick allocates %.1f times per tick, want 0", a)
	}
	if got, want := n.Epoch()-before, 2*uint64(period+1); got != want {
		t.Errorf("epoch moved %d over %d ticks, want %d", got, period+1, want)
	}
	if n.Now() != now {
		t.Errorf("clock at %d after a tick at %d", n.Now(), now)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	cfg := LoadConfig{Rate: 100_000, Count: 3_000, Seed: 7, ZipfS: 1.1}
	a := BuildSchedule(120, cfg)
	b := BuildSchedule(120, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	cfg2 := cfg
	cfg2.Seed = 8
	if reflect.DeepEqual(a, BuildSchedule(120, cfg2)) {
		t.Fatal("different seeds produced identical schedules")
	}

	// Arrival offsets are strictly non-decreasing and roughly match the
	// rate (mean inter-arrival 10 µs at 100k/s: total ≈ 30 ms ± slack).
	for i := 1; i < len(a); i++ {
		if a[i].AtNS < a[i-1].AtNS {
			t.Fatalf("arrival %d precedes %d", i, i-1)
		}
	}
	span := time.Duration(a[len(a)-1].AtNS)
	if span < 10*time.Millisecond || span > 100*time.Millisecond {
		t.Errorf("schedule span %v implausible for 3000 arrivals at 100k/s", span)
	}

	// Zipf skew: the head entry must dominate the tail entry.
	var head, tail int
	for _, ar := range a {
		switch ar.Entry {
		case 0:
			head++
		case 119:
			tail++
		}
	}
	if head <= tail {
		t.Errorf("zipf mix not skewed: head %d, tail %d", head, tail)
	}

	// Execution at any worker count issues exactly the scheduled mix.
	counts := func(workers int) []int64 {
		per := make([]atomic.Int64, 120)
		res := RunLoad(a, workers, func(_ int, e int32) error {
			per[e].Add(1)
			return nil
		})
		if res.Served.Load() != int64(len(a)) {
			t.Fatalf("workers=%d served %d of %d", workers, res.Served.Load(), len(a))
		}
		out := make([]int64, len(per))
		for i := range per {
			out[i] = per[i].Load()
		}
		return out
	}
	if !reflect.DeepEqual(counts(1), counts(8)) {
		t.Fatal("issued query mix differs across worker counts")
	}
}

func TestRunLoadClassifiesErrors(t *testing.T) {
	sched := BuildSchedule(4, LoadConfig{Rate: 1_000_000, Count: 8, Seed: 1})
	errs := []error{nil, ErrThrottled, ErrOverloaded, ErrDraining, errors.New("boom"), nil, ErrThrottled, nil}
	var i atomic.Int64
	res := RunLoad(sched, 1, func(_ int, _ int32) error {
		return errs[i.Add(1)-1]
	})
	if res.Served.Load() != 3 || res.ShedRate.Load() != 2 || res.ShedQueue.Load() != 1 ||
		res.ShedDrain.Load() != 1 || res.Failed.Load() != 1 {
		t.Fatalf("classification: served=%d rate=%d queue=%d drain=%d failed=%d",
			res.Served.Load(), res.ShedRate.Load(), res.ShedQueue.Load(), res.ShedDrain.Load(), res.Failed.Load())
	}
	if res.Shed() != 4 {
		t.Fatalf("shed total %d", res.Shed())
	}
	if res.Wall.Count() != 3 {
		t.Fatalf("wall hist observed %d, want served only (3)", res.Wall.Count())
	}
}

func TestBuildCatalogFiltersDead(t *testing.T) {
	l := tinyLab(t)
	all := BuildCatalog(l.Tr, nil)
	if len(all) == 0 {
		t.Fatal("empty catalog")
	}
	none := BuildCatalog(l.Tr, func(overlay.NodeID) bool { return false })
	if len(none) != 0 {
		t.Fatalf("filter accepted %d entries", len(none))
	}
}

func kwU32(ks []content.Keyword) []uint32 {
	out := make([]uint32, len(ks))
	for i, k := range ks {
		out[i] = uint32(k)
	}
	return out
}

func idU32(ids []overlay.NodeID) []uint32 {
	out := make([]uint32, 0, len(ids))
	for _, id := range ids {
		out = append(out, uint32(id))
	}
	return out
}
