package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"asap/internal/metrics"
)

// promSample is one parsed exposition line: name, optional le label, value.
type promSample struct {
	name  string
	le    string
	value float64
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRE     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]*)"\})? (\S+)$`)
)

// parseProm validates the exposition text against the 0.0.4 grammar as the
// tests need it — every family opens with # HELP then # TYPE for the same
// name, every sample line parses, sample names belong to the most recent
// family (exact, or _bucket/_sum/_count for histograms), and no family
// name repeats — and returns samples grouped per family.
func parseProm(t *testing.T, text string) map[string][]promSample {
	t.Helper()
	fams := make(map[string][]promSample)
	var cur, curType string
	var wantType bool
	lines := strings.Split(text, "\n")
	if lines[len(lines)-1] != "" {
		t.Fatalf("exposition does not end with a newline")
	}
	for _, line := range lines[:len(lines)-1] {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRE.MatchString(name) {
				t.Fatalf("bad HELP line: %q", line)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("family %q declared twice", name)
			}
			fams[name] = nil
			cur, wantType = name, true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if !wantType || len(fields) != 2 || fields[0] != cur {
				t.Fatalf("TYPE line %q does not follow HELP for %q", line, cur)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("bad metric type in %q", line)
			}
			curType, wantType = fields[1], false
		default:
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparseable sample line: %q", line)
			}
			if wantType || cur == "" {
				t.Fatalf("sample %q before TYPE for %q", line, cur)
			}
			name := m[1]
			switch curType {
			case "histogram":
				if name != cur+"_bucket" && name != cur+"_sum" && name != cur+"_count" {
					t.Fatalf("sample %q not part of histogram %q", name, cur)
				}
				if name == cur+"_bucket" && m[2] == "" {
					t.Fatalf("histogram bucket %q missing le label", line)
				}
			default:
				if name != cur {
					t.Fatalf("sample %q under family %q", name, cur)
				}
			}
			var v float64
			if m[4] == "+Inf" {
				if m[1] != cur+"_bucket" {
					t.Fatalf("+Inf value outside a bucket: %q", line)
				}
			} else {
				var err error
				v, err = strconv.ParseFloat(m[4], 64)
				if err != nil {
					t.Fatalf("bad sample value in %q: %v", line, err)
				}
			}
			fams[cur] = append(fams[cur], promSample{name: name, le: m[3], value: v})
		}
	}
	return fams
}

// checkHistogram asserts the histogram invariants for family name: le
// bounds strictly increasing and ending at +Inf, cumulative bucket counts
// non-decreasing, +Inf bucket equal to _count.
func checkHistogram(t *testing.T, fams map[string][]promSample, name string) {
	t.Helper()
	samples, ok := fams[name]
	if !ok {
		t.Fatalf("histogram %s missing", name)
	}
	var lastLE, lastCum float64
	var first = true
	var infCount, count float64
	var sawInf, sawCount bool
	for _, s := range samples {
		switch s.name {
		case name + "_bucket":
			if s.le == "+Inf" {
				infCount, sawInf = s.value, true
				continue
			}
			le, err := strconv.ParseFloat(s.le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q: %v", name, s.le, err)
			}
			if sawInf {
				t.Fatalf("%s: bucket after +Inf", name)
			}
			if !first && le <= lastLE {
				t.Fatalf("%s: le not increasing: %v after %v", name, le, lastLE)
			}
			if s.value < lastCum {
				t.Fatalf("%s: cumulative count decreased at le=%q: %v < %v", name, s.le, s.value, lastCum)
			}
			lastLE, lastCum, first = le, s.value, false
		case name + "_count":
			count, sawCount = s.value, true
		}
	}
	if !sawInf || !sawCount {
		t.Fatalf("%s: missing +Inf bucket or _count", name)
	}
	if infCount != count || infCount < lastCum {
		t.Fatalf("%s: +Inf bucket %v, _count %v, last cum %v", name, infCount, count, lastCum)
	}
}

func TestPromWriterGrammar(t *testing.T) {
	var w PromWriter
	w.Counter("asap_requests_total", "Requests with a\nnewline and a \\ in help.", 42)
	w.Histogram("asap_latency_seconds", "A histogram.",
		[]float64{0.001, 0.01, 0.1}, []int64{1, 5, 9}, 11, 1.25)
	fams := parseProm(t, w.String())
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	if got := fams["asap_requests_total"][0].value; got != 42 {
		t.Fatalf("counter value %v, want 42", got)
	}
	checkHistogram(t, fams, "asap_latency_seconds")
	if strings.Contains(w.String(), "\nnewline") {
		t.Fatalf("HELP newline not escaped:\n%s", w.String())
	}
}

func TestWriteProm(t *testing.T) {
	load := metrics.NewLoadAccount(10)
	load.Search(1500, metrics.SearchResult{Success: true, ResponseMS: 12, Bytes: 100})
	load.Search(2500, metrics.SearchResult{Success: true, ResponseMS: 700, Bytes: 60})
	load.Search(3500, metrics.SearchResult{Bytes: 40})
	load.Count(1500, metrics.CDrop)
	for i := 0; i < 3; i++ {
		load.Count(2500, metrics.CRetry)
	}
	load.Send(-1, metrics.MQueryHit, 80, 2)

	var w PromWriter
	WriteProm(&w, load)
	fams := parseProm(t, w.String())

	want := map[string]float64{
		"asap_searches_total":          3,
		"asap_successes_total":         2,
		"asap_drops_total":             1,
		"asap_retries_total":           3,
		"asap_msgs_query_hit_total":    2,
		"asap_search_cost_bytes_total": 200,
	}
	for name, v := range want {
		samples, ok := fams[name]
		if !ok {
			t.Fatalf("missing family %s", name)
		}
		if samples[0].value != v {
			t.Errorf("%s = %v, want %v", name, samples[0].value, v)
		}
	}
	checkHistogram(t, fams, "asap_search_response_seconds")
	// 12 ms lands in bucket 4 (le = 15 ms); 700 ms in bucket 10 (le =
	// 1023 ms). The cumulative count at le=0.015 must be exactly 1.
	var at15ms float64 = -1
	for _, s := range fams["asap_search_response_seconds"] {
		if s.name == "asap_search_response_seconds_bucket" && s.le == "0.015" {
			at15ms = s.value
		}
	}
	if at15ms != 1 {
		t.Errorf("bucket le=0.015 = %v, want 1", at15ms)
	}
}

func TestWallHist(t *testing.T) {
	var h WallHist
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket 7: [64, 128) µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // bucket 16: [32768, 65536) µs
	}
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	wantSum := 90*100*time.Microsecond + 10*50*time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("sum %v, want %v", h.Sum(), wantSum)
	}
	p50 := h.Quantile(0.50)
	if p50 < 64*time.Microsecond || p50 >= 128*time.Microsecond {
		t.Errorf("p50 %v outside bucket [64µs, 128µs)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 32768*time.Microsecond || p99 >= 65536*time.Microsecond {
		t.Errorf("p99 %v outside bucket [32.768ms, 65.536ms)", p99)
	}
	if q := h.Quantile(0.25); q >= p50 {
		t.Errorf("quantiles not monotone: q25 %v ≥ q50 %v", q, p50)
	}

	var w PromWriter
	h.WriteProm(&w, "asap_serve_wall_seconds", "Wall-clock serve latency.")
	fams := parseProm(t, w.String())
	checkHistogram(t, fams, "asap_serve_wall_seconds")

	// Nil receiver: everything is a no-op returning zeros.
	var nh *WallHist
	nh.Observe(time.Second)
	if nh.Count() != 0 || nh.Sum() != 0 || nh.Quantile(0.99) != 0 {
		t.Fatalf("nil WallHist not inert")
	}
	var nw PromWriter
	nh.WriteProm(&nw, "x", "y")
	if nw.String() != "" {
		t.Fatalf("nil WallHist wrote %q", nw.String())
	}
}

func TestWallHistOverflowBucket(t *testing.T) {
	var h WallHist
	h.Observe(time.Duration(1<<62 - 1)) // far past the last bucket bound
	if h.Count() != 1 {
		t.Fatalf("count %d", h.Count())
	}
	lo, _ := bucketBoundsUS(WallBuckets - 1)
	if q := h.Quantile(1); q < time.Duration(lo*float64(time.Microsecond)) {
		t.Fatalf("overflow quantile %v below last bucket lo", q)
	}
}
