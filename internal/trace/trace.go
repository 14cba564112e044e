package trace

import (
	"fmt"

	"asap/internal/content"
	"asap/internal/overlay"
)

// Kind discriminates trace events.
type Kind uint8

const (
	// Query is a search request carrying Terms (and the target Doc for
	// ground-truth diagnostics).
	Query Kind = iota
	// ContentAdd adds one copy of Doc to Node's shared contents.
	ContentAdd
	// ContentRemove removes Node's copy of Doc.
	ContentRemove
	// Join activates the reserve node Node.
	Join
	// Leave deactivates Node.
	Leave
	// Directive is a scenario directive: Doc carries the index of a
	// staged scenario act, applied by the sim.System's Director. Only
	// scenario staging inserts it; Build emits the paper's five kinds.
	Directive
)

// String returns the event-kind label.
func (k Kind) String() string {
	switch k {
	case Query:
		return "query"
	case ContentAdd:
		return "content-add"
	case ContentRemove:
		return "content-remove"
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Directive:
		return "directive"
	default:
		return "invalid"
	}
}

// Event is one trace record. Time is in virtual milliseconds from trace
// start. Node is the requester (Query), the mutating node (ContentAdd/
// ContentRemove), or the churning node (Join/Leave).
type Event struct {
	Time  int64
	Kind  Kind
	Node  overlay.NodeID
	Doc   content.DocID
	Terms []content.Keyword
}

// ContentRun returns the length of the maximal run of consecutive content
// events (ContentAdd/ContentRemove) starting at index i that share evs[i]'s
// node and virtual second, or 0 when evs[i] is not a content event. Runs
// are what the replay runner may coalesce into one scheme notification: no
// query, tick boundary, or foreign event can fall inside one.
func ContentRun(evs []Event, i int) int {
	e0 := &evs[i]
	if e0.Kind != ContentAdd && e0.Kind != ContentRemove {
		return 0
	}
	sec := e0.Time / 1000
	j := i + 1
	for j < len(evs) {
		e := &evs[j]
		if (e.Kind != ContentAdd && e.Kind != ContentRemove) ||
			e.Node != e0.Node || e.Time/1000 != sec {
			break
		}
		j++
	}
	return j - i
}

// Trace is a replayable event sequence over a fixed node⇄peer mapping.
type Trace struct {
	// Peers maps overlay NodeID → universe PeerID. Nodes
	// [0, InitialLive) start alive; the remainder are reserves consumed
	// by Join events in order.
	Peers []content.PeerID
	// InitialLive is the number of nodes alive at time 0.
	InitialLive int
	Events      []Event
}

// Span returns the timestamp of the last event in milliseconds (0 for an
// empty trace).
func (t *Trace) Span() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Time
}

// Stats summarises a trace for logging and validation.
type Stats struct {
	Queries, ContentAdds, ContentRemoves, Joins, Leaves int
	SpanMS                                              int64
	QueryRatePerSec                                     float64
}

// Stats computes event counts and the realised query arrival rate.
func (t *Trace) Stats() Stats {
	var s Stats
	for i := range t.Events {
		switch t.Events[i].Kind {
		case Query:
			s.Queries++
		case ContentAdd:
			s.ContentAdds++
		case ContentRemove:
			s.ContentRemoves++
		case Join:
			s.Joins++
		case Leave:
			s.Leaves++
		}
	}
	s.SpanMS = t.Span()
	if s.SpanMS > 0 {
		s.QueryRatePerSec = float64(s.Queries) / (float64(s.SpanMS) / 1000)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("trace{q=%d add=%d rm=%d join=%d leave=%d span=%.1fs rate=%.2f/s}",
		s.Queries, s.ContentAdds, s.ContentRemoves, s.Joins, s.Leaves,
		float64(s.SpanMS)/1000, s.QueryRatePerSec)
}

// Config parameterises Build. Defaults follow §IV-B.
type Config struct {
	NumNodes          int     // initial P2P participants (paper: 10,000)
	NumQueries        int     // search requests (paper: 30,000)
	ContentChangeFrac float64 // queries followed by a content change (paper: 0.10)
	NumJoins          int     // node-join events (paper: 1,000)
	NumLeaves         int     // node-departure events (paper: 1,000)
	Lambda            float64 // Poisson arrival rate, requests/second (paper: 8)
	TermsMin          int     // minimum query terms
	TermsMax          int     // maximum query terms
	Seed              uint64
}

// DefaultConfig returns the paper's trace parameters.
func DefaultConfig() Config {
	return Config{
		NumNodes:          10000,
		NumQueries:        30000,
		ContentChangeFrac: 0.10,
		NumJoins:          1000,
		NumLeaves:         1000,
		Lambda:            8,
		TermsMin:          1,
		TermsMax:          3,
		Seed:              1,
	}
}

// Scaled shrinks node and event counts by factor f, preserving rates and
// fractions.
func (c Config) Scaled(f float64) Config {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("trace: scale factor %v out of (0,1]", f))
	}
	c.NumNodes = max(10, int(float64(c.NumNodes)*f))
	c.NumQueries = max(10, int(float64(c.NumQueries)*f))
	c.NumJoins = int(float64(c.NumJoins) * f)
	c.NumLeaves = int(float64(c.NumLeaves) * f)
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumNodes < 2:
		return fmt.Errorf("trace: NumNodes %d < 2", c.NumNodes)
	case c.NumQueries < 0 || c.NumJoins < 0 || c.NumLeaves < 0:
		return fmt.Errorf("trace: negative event count")
	case c.ContentChangeFrac < 0 || c.ContentChangeFrac > 1:
		return fmt.Errorf("trace: ContentChangeFrac %v out of [0,1]", c.ContentChangeFrac)
	case c.Lambda <= 0:
		return fmt.Errorf("trace: Lambda %v must be positive", c.Lambda)
	case c.TermsMin < 1 || c.TermsMax < c.TermsMin:
		return fmt.Errorf("trace: term bounds [%d,%d] invalid", c.TermsMin, c.TermsMax)
	case c.NumLeaves >= c.NumNodes:
		return fmt.Errorf("trace: NumLeaves %d would drain the %d-node overlay", c.NumLeaves, c.NumNodes)
	}
	return nil
}
