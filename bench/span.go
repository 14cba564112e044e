package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer: the layer-qualified name, start and
// end in ns since the tracer's origin, the index of the span that caused
// it (-1 for a root) and the operation it belongs to (-1 when none).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// tracer records spans from one goroutine into a preallocated slice; the
// traced run writes them out after measuring. All spans are recorded from
// the benchmark's own files, around the calls into each layer. A nil
// tracer records nothing, so the untraced cycles run the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity), open: make([]int32, 0, 16)}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string, op int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent, op: int32(op)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.spans[id].end = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// layerTime is one span name's totals over a set of spans.
type layerTime struct {
	Calls  int
	TotalS float64 // sum of durations
	SelfS  float64 // durations minus the time covered by child spans
}

// selfTimes folds spans by name and checks that they nest: every child
// lies inside its parent and starts no earlier than the previous child of
// that parent ended. Nested like that, a span's self time is never
// negative and the self times under a root add up to the root's duration
// exactly.
func selfTimes(spans []span) (map[string]*layerTime, error) {
	child := make([]int64, len(spans))   // time covered by direct children
	lastEnd := make([]int64, len(spans)) // end of the latest direct child
	for i := range spans {
		s := &spans[i]
		if s.end < s.start {
			return nil, fmt.Errorf("span %d (%s) never closed", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := &spans[s.parent]
		if int(s.parent) >= i || s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.name, s.parent, p.name)
		}
		if s.start < lastEnd[s.parent] {
			return nil, fmt.Errorf("span %d (%s) overlaps an earlier child of %d (%s)", i, s.name, s.parent, p.name)
		}
		lastEnd[s.parent] = s.end
		child[s.parent] += s.end - s.start
	}
	out := map[string]*layerTime{}
	for i := range spans {
		s := &spans[i]
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		dur := s.end - s.start
		lt.Calls++
		lt.TotalS += float64(dur) / 1e9
		lt.SelfS += float64(dur-child[i]) / 1e9
	}
	return out, nil
}

// maxSpansWritten caps the span file: serve-bin records 300,000 spans per
// connection, and the totals in the report already cover all of them.
const maxSpansWritten = 200_000

// writeSpans writes each tracer's spans as CSV (goroutine, index, name,
// start_ns, end_ns, parent, op).
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "goroutine,index,name,start_ns,end_ns,parent,op")
	written := 0
	for g, t := range tracers {
		for i := range t.spans {
			if written == maxSpansWritten {
				break
			}
			s := &t.spans[i]
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", g, i, s.name, s.start, s.end, s.parent, s.op)
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
