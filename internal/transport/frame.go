package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Frame layout: a 4-byte big-endian length n, one type byte, then n-1
// payload bytes. The length covers the type byte so a zero length is
// structurally impossible and rejected outright.
const (
	// MaxFrame bounds a frame's declared length: 1 MB is three times the
	// largest legitimate message (an MServeQuery or MServeOK of 65,536
	// uvarint ids of at most 5 bytes each) yet small enough that a forged
	// header cannot make a receiver allocate much.
	MaxFrame = 1 << 20

	headerLen = 4
)

// MsgType tags a frame's payload.
type MsgType byte

// ErrFrameTooLarge reports a declared frame length beyond MaxFrame.
type ErrFrameTooLarge struct{ N uint32 }

func (e ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("transport: frame length %d exceeds %d", e.N, MaxFrame)
}

// Conn is one framed connection. Reads and writes each assume a single
// caller at a time (the request/response discipline every exchange
// follows); a write mutex still serialises concurrent senders so a
// misbehaving caller corrupts nothing.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
}

// NewConn wraps a byte stream in the frame codec.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}
}

// SetReadDeadline bounds the next reads on the underlying stream (see
// net.Conn); a ReadFrame still pending at t fails with a timeout error.
func (cn *Conn) SetReadDeadline(t time.Time) error { return cn.c.SetReadDeadline(t) }

// SetWriteDeadline bounds the next writes on the underlying stream (see
// net.Conn); a WriteFrame still pending at t fails with a timeout error.
func (cn *Conn) SetWriteDeadline(t time.Time) error { return cn.c.SetWriteDeadline(t) }

// WriteFrame sends one frame and flushes it.
func (cn *Conn) WriteFrame(t MsgType, payload []byte) error {
	n := uint32(len(payload) + 1)
	if n > MaxFrame {
		return ErrFrameTooLarge{n}
	}
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	var hdr [headerLen + 1]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	hdr[headerLen] = byte(t)
	if _, err := cn.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := cn.bw.Write(payload); err != nil {
		return err
	}
	return cn.bw.Flush()
}

// ReadFrame receives one frame. A declared length of zero or beyond
// MaxFrame is rejected before any payload allocation; a stream that ends
// mid-frame surfaces io.ErrUnexpectedEOF.
func (cn *Conn) ReadFrame() (MsgType, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(cn.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("transport: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge{n}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(cn.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return MsgType(body[0]), body[1:], nil
}

// Close tears the connection down.
func (cn *Conn) Close() error { return cn.c.Close() }
