package serve

import "net/http"

// Test-only API: what only this package's tests read lives here, not in
// the library (TestInternalCodeIsReachable at the repo root keeps it so).

// Handler returns the route mux (test helper).
func (s *Server) Handler() http.Handler { return s.mux }
