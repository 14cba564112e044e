package main

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"asap/internal/serve"
)

// TestRunRejectsBadInputs: a count, client number or rate that cannot
// make a load run is an error before anything is built, never a panic
// and never a passing smoke run that served nothing.
func TestRunRejectsBadInputs(t *testing.T) {
	preset := math.NaN() // no -rate: the preset trace's λ
	for _, tc := range []struct {
		name          string
		scale, topo   string
		rate          float64
		count, client int
		want          string
	}{
		{"bad scale", "bogus", "random", preset, 10, 1, "bogus"},
		{"bad topology", "tiny", "mesh", preset, 10, 1, "mesh"},
		{"zero clients", "tiny", "random", preset, 10, 0, "-clients"},
		{"negative clients", "tiny", "random", preset, 10, -3, "-clients"},
		{"zero queries", "tiny", "random", preset, 0, 1, "-n"},
		{"negative queries", "tiny", "random", preset, -1, 1, "-n"},
		{"zero rate", "tiny", "random", 0, 10, 1, "-rate"},
		{"negative rate", "tiny", "random", -5, 10, 1, "-rate"},
	} {
		err := run("inproc", "", tc.scale, "asap-rw", tc.topo, 0, tc.rate,
			tc.count, 1, 1, tc.client, serve.Config{}, true, time.Second, 0, true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestClientsTimeOutOnStalledDaemon: against a listener that accepts
// connections and never answers, every exchange of both client modes
// gives up after exchangeTimeout and counts as failed, so the run ends.
func TestClientsTimeOutOnStalledDaemon(t *testing.T) {
	old := exchangeTimeout
	exchangeTimeout = 100 * time.Millisecond
	t.Cleanup(func() { exchangeTimeout = old })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c) // read nothing, reply nothing
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		for _, c := range held {
			c.Close()
		}
	})

	catalog := []serve.CatalogEntry{{From: 1, Terms: nil}}
	sched := []serve.Arrival{{Entry: 0}, {Entry: 0}, {Entry: 0}}
	bin, err := binClient(ln.Addr().String(), catalog, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode string
		do   func(int, int32) error
	}{
		{"http", httpClient(ln.Addr().String(), catalog, 1)},
		{"bin", bin},
	} {
		start := time.Now()
		res := serve.RunLoad(sched, 1, tc.do)
		if got := res.Failed.Load(); got != int64(len(sched)) || res.Served.Load() != 0 {
			t.Errorf("%s: failed %d served %d, want every one of %d failed",
				tc.mode, got, res.Served.Load(), len(sched))
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("%s: run took %v against a %v exchange deadline", tc.mode, el, exchangeTimeout)
		}
	}
}
