package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"asap/internal/transport"
)

// shortBinDeadlines shrinks the binary endpoint's deadlines for one test;
// servers built by NewBinary afterwards copy the shortened values.
func shortBinDeadlines(t *testing.T, d time.Duration) {
	t.Helper()
	idle, write := binIdleTimeout, binWriteTimeout
	binIdleTimeout, binWriteTimeout = d, d
	t.Cleanup(func() { binIdleTimeout, binWriteTimeout = idle, write })
}

// waitGoroutines polls until at most n goroutines run, failing after a
// generous bound.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want ≤ %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitHangup reads from c until the server closes it and returns how
// long that took; a client-side safety deadline fails the test instead of
// hanging it.
func awaitHangup(t *testing.T, c net.Conn) time.Duration {
	t.Helper()
	start := time.Now()
	c.SetReadDeadline(start.Add(5 * time.Second))
	_, err := io.Copy(io.Discard, c)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server never closed the connection")
	}
	return time.Since(start)
}

// TestBinaryDeadlinesCutOffStalledClients: over loopback TCP, a client
// that promises a 1,000-byte frame and stalls after a few bytes, and a
// client that connects and sends nothing, are both disconnected once the
// idle deadline passes, and every connection goroutine exits.
func TestBinaryDeadlinesCutOffStalledClients(t *testing.T) {
	const idle = 150 * time.Millisecond
	shortBinDeadlines(t, idle)
	n := sharedWarmNode(t)
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinary(n, ln)
	served := make(chan error, 1)
	go func() { served <- bs.Serve() }()
	baseline := runtime.NumGoroutine()

	stalls := map[string][]byte{
		"mid-frame": {0, 0, 0x03, 0xe8, byte(transport.MServeQuery), 1, 2, 3},
		"silent":    nil,
	}
	for name, sent := range stalls {
		t.Run(name, func(t *testing.T) {
			c, err := net.Dial("tcp", bs.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(sent); err != nil {
				t.Fatal(err)
			}
			if took := awaitHangup(t, c); took > idle+2*time.Second {
				t.Errorf("disconnected after %v, want about %v", took, idle)
			}
		})
	}
	waitGoroutines(t, baseline)

	// A connection that keeps talking inside the budget is not cut off.
	c, err := transport.TCP{}.Dial(bs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	q := liveQuery(t, n)
	req := (&transport.ServeQuery{From: uint32(q.From), Terms: kwU32(q.Terms)}).Encode(nil)
	for i := 0; i < 3; i++ {
		time.Sleep(idle / 3)
		if err := c.WriteFrame(transport.MServeQuery, req); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := c.ReadFrame(); err != nil || mt != transport.MServeOK {
			t.Fatalf("exchange %d: type %#x err %v", i, byte(mt), err)
		}
	}
	c.Close()
	bs.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// postRaw sends one POST /search with the given body bytes to addr and
// returns the response status.
func postRaw(t *testing.T, addr string, body []byte) int {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /search: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// scrape returns the named counter from GET /metrics.
func scrape(t *testing.T, addr, name string) int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestHTTPBodyCapAndTimeouts: an oversize body gets 413 and runs no
// search, a body that stalls mid-stream is cut off by the read timeout,
// and through both the /metrics served and shed counters count exactly
// the searches that ran and were shed.
func TestHTTPBodyCapAndTimeouts(t *testing.T) {
	// One token, refilled only after ~17 minutes: the second search sheds.
	n := coldNode(t, Config{Workers: 2, Rate: 0.001, Burst: 1})
	s := NewHTTP(n, nil)
	if hs := s.hs; hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("server timeouts unset: header %v read %v write %v idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	const readTimeout = 200 * time.Millisecond
	s.hs.ReadTimeout = readTimeout
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	addr := l.Addr().String()

	q := liveQuery(t, n)
	valid, _ := json.Marshal(SearchRequest{From: uint32(q.From), Terms: kwU32(q.Terms)})
	if code := postRaw(t, addr, valid); code != http.StatusOK {
		t.Fatalf("valid search: status %d", code)
	}

	// Oversize: a well-formed query padded past the cap with whitespace.
	big := append(append([]byte{}, valid...), bytes.Repeat([]byte{' '}, maxSearchBody)...)
	if code := postRaw(t, addr, big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", code)
	}

	// Stall: headers promise 1,000 body bytes, a few arrive, then nothing.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "POST /search HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"from\":", addr)
	if took := awaitHangup(t, c); took > readTimeout+2*time.Second {
		t.Errorf("stalled body cut off after %v, want about %v", took, readTimeout)
	}

	// The token bucket (burst 1) sheds the next valid search.
	if code := postRaw(t, addr, valid); code != http.StatusTooManyRequests {
		t.Errorf("throttled search: status %d, want 429", code)
	}
	if got := scrape(t, addr, "asap_serve_served_total"); got != 1 {
		t.Errorf("served_total %d, want 1 (only the valid search ran)", got)
	}
	if got := scrape(t, addr, "asap_serve_shed_rate_total"); got != 1 {
		t.Errorf("shed_rate_total %d, want 1", got)
	}
	if got := n.Stats().Shed(); got != 1 {
		t.Errorf("shed total %d, want 1", got)
	}

	s.hs.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
