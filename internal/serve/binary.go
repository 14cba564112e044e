package serve

import (
	"errors"
	"time"

	"asap/internal/content"
	"asap/internal/overlay"
	"asap/internal/transport"
)

// Binary endpoint deadlines. A connection may sit idle between requests
// for at most binIdleTimeout — the read deadline covers the whole next
// frame, so a client that stalls mid-frame is cut off too — and each
// reply must drain within binWriteTimeout. Either expiry closes the
// connection and ends its goroutine, so half-open and stalled clients
// cannot pin server resources. Tests shorten them before NewBinary.
var (
	binIdleTimeout  = 2 * time.Minute
	binWriteTimeout = 10 * time.Second
)

// BinaryServer exposes a serving Node over the length-prefixed binary
// protocol (internal/transport framing, MServe* frame types): one
// request/response exchange per frame, many concurrent connections, each
// connection serving requests sequentially from its own reused buffers —
// the zero-allocation steady state the wire path inherits from the node.
type BinaryServer struct {
	n  *Node
	ln transport.Listener

	idle, write time.Duration
}

// NewBinary builds the binary front end for n on ln.
func NewBinary(n *Node, ln transport.Listener) *BinaryServer {
	return &BinaryServer{n: n, ln: ln, idle: binIdleTimeout, write: binWriteTimeout}
}

// Addr returns the bound listener address.
func (b *BinaryServer) Addr() string { return b.ln.Addr() }

// Serve accepts connections until the listener closes (Close or process
// shutdown). Each connection is served on its own goroutine.
func (b *BinaryServer) Serve() error {
	for {
		c, err := b.ln.Accept()
		if err != nil {
			return nil // listener closed: clean shutdown
		}
		go b.serveConn(c)
	}
}

// Close stops accepting new connections. In-flight exchanges finish on
// their own goroutines; pair with Node.Drain for a full graceful stop.
func (b *BinaryServer) Close() error { return b.ln.Close() }

// shedCode maps an admission error to its wire reason code.
func shedCode(err error) byte {
	switch {
	case errors.Is(err, ErrThrottled):
		return transport.ServeErrThrottled
	case errors.Is(err, ErrOverloaded):
		return transport.ServeErrOverloaded
	case errors.Is(err, ErrDraining):
		return transport.ServeErrDraining
	default:
		return transport.ServeErrBadRequest
	}
}

// send writes one reply frame under the write deadline and reports
// whether the connection is still usable.
func (b *BinaryServer) send(c *transport.Conn, t transport.MsgType, p []byte) bool {
	if c.SetWriteDeadline(time.Now().Add(b.write)) != nil {
		return false
	}
	return c.WriteFrame(t, p) == nil
}

// serveConn runs one connection's request loop: every request frame gets
// exactly one reply frame, or the connection closes (read error, deadline,
// failed reply, or after acknowledging MServeBye). Buffers persist across
// requests, so a warm connection allocates only inside the transport
// reader (frame payload) and whatever SearchRO grows once.
func (b *BinaryServer) serveConn(c *transport.Conn) {
	defer c.Close()
	var (
		terms []content.Keyword
		dst   []overlay.NodeID
		buf   []byte
		reply transport.ServeReply
	)
	badRequest := []byte{transport.ServeErrBadRequest}
	for {
		if c.SetReadDeadline(time.Now().Add(b.idle)) != nil {
			return
		}
		t, p, err := c.ReadFrame()
		if err != nil {
			return
		}
		var ok bool
		switch t {
		case transport.MServeBye:
			b.send(c, transport.MServeByeOK, nil)
			return
		case transport.MServeQuery:
			q, err := transport.DecodeServeQuery(p)
			if err != nil || int(q.From) >= b.n.sys.G.N() {
				ok = b.send(c, transport.MServeErr, badRequest)
				break
			}
			terms = terms[:0]
			for _, kw := range q.Terms {
				terms = append(terms, content.Keyword(kw))
			}
			res, out, epoch, err := b.n.Search(overlay.NodeID(q.From), terms, dst[:0])
			dst = out
			if err != nil {
				ok = b.send(c, transport.MServeErr, []byte{shedCode(err)})
				break
			}
			reply.Epoch, reply.Phase2 = epoch, res.Phase2
			reply.Sources = reply.Sources[:0]
			for _, id := range out {
				reply.Sources = append(reply.Sources, uint32(id))
			}
			buf = reply.Encode(buf[:0])
			ok = b.send(c, transport.MServeOK, buf)
		default:
			ok = b.send(c, transport.MServeErr, badRequest)
		}
		if !ok {
			return
		}
	}
}
