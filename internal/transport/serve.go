package transport

import (
	"encoding/binary"
	"fmt"
)

// Serving-plane frame types (internal/serve's binary endpoint), numbered
// from 0x50. Every request frame gets exactly one reply frame.
const (
	// MServeQuery is a client → server search request.
	MServeQuery MsgType = 0x50 + iota
	// MServeOK answers a query with the verified sources.
	MServeOK
	// MServeErr answers a shed query with a one-byte reason code.
	MServeErr
	// MServeBye asks the server to close the connection (acked with
	// MServeByeOK so the client can distinguish clean shutdown).
	MServeBye
	// MServeByeOK acknowledges MServeBye.
	MServeByeOK
)

// MServeErr reason codes.
const (
	// ServeErrThrottled: the admission token bucket is empty (retryable).
	ServeErrThrottled byte = 1
	// ServeErrOverloaded: all worker slots busy and the queue is full
	// (retryable).
	ServeErrOverloaded byte = 2
	// ServeErrDraining: the server is shutting down.
	ServeErrDraining byte = 3
	// ServeErrBadRequest: the frame had an unknown type, did not decode,
	// or named an out-of-range peer.
	ServeErrBadRequest byte = 4
)

// ServeQuery is an MServeQuery payload: the requesting peer and its
// query terms.
type ServeQuery struct {
	From  uint32
	Terms []uint32
}

// Encode appends the binary form of q to buf.
func (q *ServeQuery) Encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(q.From))
	return appendU32List(buf, q.Terms)
}

// DecodeServeQuery parses an MServeQuery payload.
func DecodeServeQuery(p []byte) (ServeQuery, error) {
	var q ServeQuery
	from, p, err := readUvarint(p, "serve from", 1<<31)
	if err != nil {
		return q, err
	}
	q.From = uint32(from)
	if q.Terms, p, err = readU32List(p, "serve terms"); err != nil {
		return q, err
	}
	if len(p) != 0 {
		return q, fmt.Errorf("transport: %d trailing bytes after serve query", len(p))
	}
	return q, nil
}

// ServeReply is an MServeOK payload: the even store epoch the answer was
// computed under, whether phase 2 (the h-hop ads request walk) ran, and
// the verified source node ids.
type ServeReply struct {
	Epoch   uint64
	Phase2  bool
	Sources []uint32
}

// Encode appends the binary form of r to buf.
func (r *ServeReply) Encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, r.Epoch)
	if r.Phase2 {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendU32List(buf, r.Sources)
}

// DecodeServeReply parses an MServeOK payload.
func DecodeServeReply(p []byte) (ServeReply, error) {
	var r ServeReply
	epoch, p, err := readUvarint(p, "serve epoch", 1<<62)
	if err != nil {
		return r, err
	}
	r.Epoch = epoch
	if len(p) < 1 {
		return r, fmt.Errorf("transport: truncated serve reply")
	}
	r.Phase2 = p[0] != 0
	if r.Sources, p, err = readU32List(p[1:], "serve sources"); err != nil {
		return r, err
	}
	if len(p) != 0 {
		return r, fmt.Errorf("transport: %d trailing bytes after serve reply", len(p))
	}
	return r, nil
}
