package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"asap/internal/transport"
)

// fuzzSeeds returns the shared seed payloads: a valid query from the warm
// node's catalog and a maximum-count term list (65,536 terms, the most
// DecodeServeQuery accepts).
func fuzzSeeds(t testing.TB, n *Node) (valid, maxTerms transport.ServeQuery) {
	cat := BuildCatalog(n.sys.Tr, n.sys.G.Alive)
	if len(cat) == 0 {
		t.Fatal("no live catalog entries")
	}
	valid = transport.ServeQuery{From: uint32(cat[0].From), Terms: kwU32(cat[0].Terms)}
	maxTerms = transport.ServeQuery{From: valid.From, Terms: make([]uint32, 1<<16)}
	for i := range maxTerms.Terms {
		maxTerms.Terms[i] = uint32(i)
	}
	return valid, maxTerms
}

// FuzzServeFrame feeds arbitrary (type, payload) frames to the binary
// endpoint over transport.Mem. Every request frame must get exactly one
// reply — MServeOK, MServeErr or, for MServeBye, MServeByeOK — or the
// connection closes; the server never panics. A payload DecodeServeQuery
// accepts must re-encode to the same bytes.
func FuzzServeFrame(f *testing.F) {
	n := sharedWarmNode(f)
	valid, maxTerms := fuzzSeeds(f, n)
	f.Add(byte(transport.MServeQuery), valid.Encode(nil))
	f.Add(byte(transport.MServeQuery), []byte{})
	f.Add(byte(0x7f), []byte{1, 2, 3})
	f.Add(byte(transport.MServeQuery), maxTerms.Encode(nil))
	f.Add(byte(transport.MServeBye), []byte{})

	ln, err := transport.Mem{}.Listen("")
	if err != nil {
		f.Fatal(err)
	}
	bs := NewBinary(n, ln)
	go bs.Serve()
	f.Cleanup(func() { bs.Close() })

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if len(payload)+1 > transport.MaxFrame {
			return // the client codec refuses it before any byte moves
		}
		q, decErr := transport.DecodeServeQuery(payload)
		if decErr == nil && !bytes.Equal(q.Encode(nil), payload) {
			t.Fatalf("accepted query %x re-encodes to %x", payload, q.Encode(nil))
		}

		c, err := transport.Mem{}.Dial(bs.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		c.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := c.WriteFrame(transport.MsgType(typ), payload); err != nil {
			t.Fatalf("sending frame: %v", err)
		}
		mt, p, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("no reply to frame type %#x: %v", typ, err)
		}
		switch transport.MsgType(typ) {
		case transport.MServeBye:
			if mt != transport.MServeByeOK {
				t.Fatalf("bye answered with type %#x", byte(mt))
			}
			if _, _, err := c.ReadFrame(); err == nil {
				t.Fatal("connection still open after the bye ack")
			}
			return
		case transport.MServeQuery:
			if decErr == nil && int(q.From) < n.sys.G.N() {
				if mt == transport.MServeOK {
					if _, err := transport.DecodeServeReply(p); err != nil {
						t.Fatalf("undecodable reply: %v", err)
					}
					break
				}
				if mt != transport.MServeErr || len(p) != 1 || p[0] == transport.ServeErrBadRequest {
					t.Fatalf("valid query answered with type %#x payload %x", byte(mt), p)
				}
				break
			}
			fallthrough
		default:
			if mt != transport.MServeErr || len(p) != 1 || p[0] != transport.ServeErrBadRequest {
				t.Fatalf("bad frame (type %#x) answered with type %#x payload %x", typ, byte(mt), p)
			}
		}
		// Exactly one reply: the next frame on the wire answers our bye.
		if err := c.WriteFrame(transport.MServeBye, nil); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := c.ReadFrame(); err != nil || mt != transport.MServeByeOK {
			t.Fatalf("after the reply: type %#x err %v, want the bye ack", byte(mt), err)
		}
	})
}

// FuzzSearchBody sends arbitrary bodies to POST /search through
// Server.Handler: every answer is one of 200, 400, 413, 429 or 503.
func FuzzSearchBody(f *testing.F) {
	n := sharedWarmNode(f)
	valid, maxTerms := fuzzSeeds(f, n)
	for _, q := range []transport.ServeQuery{valid, maxTerms, {From: 1 << 30}} {
		body, err := json.Marshal(SearchRequest{From: q.From, Terms: q.Terms})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"from":1,"terms":[1,2]}` + string(bytes.Repeat([]byte{' '}, maxSearchBody))))

	h := NewHTTP(n, nil).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
