package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"asap/internal/content"
	"asap/internal/overlay"
)

// jsonHeader is the first line of the JSON-lines trace format.
type jsonHeader struct {
	Format      string           `json:"format"`
	Peers       []content.PeerID `json:"peers"`
	InitialLive int              `json:"initial_live"`
	Events      int              `json:"events"`
}

// jsonEvent is one trace event as a JSON line.
type jsonEvent struct {
	T     int64             `json:"t"`
	Kind  string            `json:"kind"`
	Node  overlay.NodeID    `json:"node"`
	Doc   content.DocID     `json:"doc,omitempty"`
	Terms []content.Keyword `json:"terms,omitempty"`
}

const jsonFormat = "asap-trace-jsonl-1"

// EncodeJSON writes the trace as JSON lines — a header object followed by
// one event object per line. The format is for inspection and interop;
// the binary codec is ~6× smaller and faster.
func (t *Trace) EncodeJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonHeader{Format: jsonFormat, Peers: t.Peers, InitialLive: t.InitialLive, Events: len(t.Events)}); err != nil {
		return err
	}
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Kind > Leave {
			return fmt.Errorf("trace: unserializable kind %s at event %d", ev.Kind, i)
		}
		if err := enc.Encode(jsonEvent{T: ev.Time, Kind: ev.Kind.String(), Node: ev.Node, Doc: ev.Doc, Terms: ev.Terms}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeJSON reads a trace written by EncodeJSON.
func DecodeJSON(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr jsonHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trace: reading JSON header: %w", err)
	}
	if hdr.Format != jsonFormat {
		return nil, fmt.Errorf("trace: unknown JSON format %q", hdr.Format)
	}
	// The same hostile-header rejections as the binary codec: bound every
	// count before it sizes an allocation or a loop, and refuse shapes no
	// encoder produces (events without peers, negative ids).
	if len(hdr.Peers) > 1<<28 {
		return nil, fmt.Errorf("trace: peer count %d exceeds limit %d", len(hdr.Peers), 1<<28)
	}
	for i, p := range hdr.Peers {
		if p < 0 {
			return nil, fmt.Errorf("trace: negative peer id %d at index %d", p, i)
		}
	}
	if hdr.InitialLive < 0 || hdr.InitialLive > len(hdr.Peers) {
		return nil, fmt.Errorf("trace: initial_live %d out of range", hdr.InitialLive)
	}
	if hdr.Events < 0 || hdr.Events > 1<<30 {
		return nil, fmt.Errorf("trace: event count %d exceeds limit %d", hdr.Events, 1<<30)
	}
	if hdr.Events > 0 && len(hdr.Peers) == 0 {
		return nil, fmt.Errorf("trace: %d events but no peers", hdr.Events)
	}
	// Cap the up-front allocation like the binary decoder: the count is
	// untrusted until the events actually parse.
	tr := &Trace{Peers: hdr.Peers, InitialLive: hdr.InitialLive, Events: make([]Event, 0, min(hdr.Events, 4096))}
	prev := int64(0)
	for i := 0; ; i++ {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: reading JSON event %d: %w", i, err)
		}
		kind, err := kindByLabel(je.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if je.T < 0 {
			return nil, fmt.Errorf("trace: event %d: negative time %d", i, je.T)
		}
		if je.T < prev {
			return nil, fmt.Errorf("trace: event %d out of order", i)
		}
		prev = je.T
		if int(je.Node) < 0 || int(je.Node) >= len(hdr.Peers) {
			return nil, fmt.Errorf("trace: event %d: node %d out of range", i, je.Node)
		}
		if uint64(je.Doc) > 1<<31 {
			return nil, fmt.Errorf("trace: event %d: doc %d exceeds limit %d", i, je.Doc, 1<<31)
		}
		if len(je.Terms) > 64 {
			return nil, fmt.Errorf("trace: event %d: term count %d exceeds limit 64", i, len(je.Terms))
		}
		for _, term := range je.Terms {
			if uint64(term) > 1<<31 {
				return nil, fmt.Errorf("trace: event %d: term %d exceeds limit %d", i, term, 1<<31)
			}
		}
		if len(je.Terms) == 0 {
			je.Terms = nil // "terms":[] decodes like an absent field, as in the binary codec
		}
		tr.Events = append(tr.Events, Event{Time: je.T, Kind: kind, Node: je.Node, Doc: je.Doc, Terms: je.Terms})
	}
	if hdr.Events != len(tr.Events) {
		return nil, fmt.Errorf("trace: header says %d events, found %d", hdr.Events, len(tr.Events))
	}
	return tr, nil
}

func kindByLabel(label string) (Kind, error) {
	for k := Query; k <= Leave; k++ {
		if k.String() == label {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown event kind %q", label)
}
