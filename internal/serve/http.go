package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"asap/internal/content"
	"asap/internal/obs"
	"asap/internal/overlay"
)

// SearchRequest is the JSON body of POST /search.
type SearchRequest struct {
	// From is the querying peer's node id.
	From uint32 `json:"from"`
	// Terms are the query keywords.
	Terms []uint32 `json:"terms"`
}

// SearchResponse is the JSON body of a successful search.
type SearchResponse struct {
	// Epoch is the even store epoch the answer was computed under.
	Epoch uint64 `json:"epoch"`
	// Phase2 reports whether the h-hop ads-request walk ran.
	Phase2 bool `json:"phase2"`
	// Sources are the verified source node ids.
	Sources []uint32 `json:"sources"`
}

// errorResponse is the JSON body of a shed or rejected request.
type errorResponse struct {
	Error string `json:"error"`
}

// HTTP endpoint bounds. A search body larger than maxSearchBody is
// refused with 413 before any search runs — 64 KiB holds several thousand
// terms, far beyond any real query. The server timeouts cut off a client
// that stalls sending its headers or body, never reads its response, or
// idles on a kept-alive connection.
const (
	maxSearchBody     = 64 << 10
	httpHeaderTimeout = 10 * time.Second
	httpReadTimeout   = 10 * time.Second
	httpWriteTimeout  = 10 * time.Second
	httpIdleTimeout   = 2 * time.Minute
)

// httpScratch pools the per-request body and conversion buffers so a
// served HTTP query costs only the JSON codec's allocations.
type httpScratch struct {
	body  bytes.Buffer
	terms []content.Keyword
	dst   []overlay.NodeID
	srcs  []uint32
}

// Server exposes a serving Node over HTTP: POST /search (JSON), GET
// /metrics (Prometheus text exposition), GET /healthz.
type Server struct {
	n    *Node
	mux  *http.ServeMux
	hs   *http.Server
	pool sync.Pool
}

// NewHTTP builds the HTTP front end for n. /metrics exports the node's
// ledger alongside the serving counters. The recorder argument is unused.
func NewHTTP(n *Node, _ *obs.Recorder) *Server {
	s := &Server{n: n, mux: http.NewServeMux()}
	s.pool.New = func() any { return &httpScratch{} }
	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: httpHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
	return s
}

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the node (in-flight and queued searches finish, new
// ones shed with 503) and then closes the HTTP server gracefully.
func (s *Server) Shutdown(ctx context.Context) error {
	s.n.Drain()
	return s.hs.Shutdown(ctx)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// shedStatus maps an admission error to its HTTP status.
func shedStatus(err error) int {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable // 503: going away
	default:
		return http.StatusTooManyRequests // 429: retryable
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	sc := s.pool.Get().(*httpScratch)
	defer s.pool.Put(sc)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxSearchBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	var req SearchRequest
	if err := json.Unmarshal(sc.body.Bytes(), &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	if int(req.From) >= s.n.sys.G.N() {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "unknown peer"})
		return
	}
	sc.terms = sc.terms[:0]
	for _, t := range req.Terms {
		sc.terms = append(sc.terms, content.Keyword(t))
	}
	res, dst, epoch, err := s.n.Search(overlay.NodeID(req.From), sc.terms, sc.dst[:0])
	sc.dst = dst
	if err != nil {
		writeJSON(w, shedStatus(err), errorResponse{Error: err.Error()})
		return
	}
	sc.srcs = sc.srcs[:0]
	for _, id := range dst {
		sc.srcs = append(sc.srcs, uint32(id))
	}
	writeJSON(w, http.StatusOK, SearchResponse{Epoch: epoch, Phase2: res.Phase2, Sources: sc.srcs})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var pw obs.PromWriter
	// The ledger's writers (Tick, Apply) hold the gate's writer lock.
	s.n.gate.mu.Lock()
	obs.WriteProm(&pw, s.n.sys.Load)
	s.n.gate.mu.Unlock()
	s.n.stats.WriteProm(&pw)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(pw.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.n.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}
