package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

// pipePair returns two framed ends of an in-memory byte stream.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestFrameRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	payloads := [][]byte{
		nil,
		{},
		{0xff},
		bytes.Repeat([]byte("asap"), 100),
		make([]byte, 70<<10), // larger than the 64 KB bufio windows
	}
	go func() {
		for i, p := range payloads {
			if err := ca.WriteFrame(MsgType(i+1), p); err != nil {
				t.Errorf("WriteFrame %d: %v", i, err)
				return
			}
		}
	}()
	for i, want := range payloads {
		typ, got, err := cb.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if typ != MsgType(i+1) {
			t.Fatalf("frame %d: type = %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload differs (%d bytes vs %d)", i, len(got), len(want))
		}
	}
}

func TestFrameTruncatedStream(t *testing.T) {
	// A header promising more payload than the stream carries must surface
	// io.ErrUnexpectedEOF, never a short read or a hang.
	for cut := 1; cut < 9; cut++ {
		var full bytes.Buffer
		full.Write([]byte{0, 0, 0, 5})                    // n = 5: type + 4 payload bytes
		full.Write([]byte{byte(MServeQuery), 1, 2, 3, 4}) // the frame body
		raw := full.Bytes()[:cut]

		a, b := net.Pipe()
		go func() {
			b.Write(raw)
			b.Close()
		}()
		cn := NewConn(a)
		_, _, err := cn.ReadFrame()
		if cut < 4 && err != io.ErrUnexpectedEOF && err != io.EOF {
			t.Errorf("cut=%d: err = %v, want unexpected EOF", cut, err)
		}
		if cut >= 4 && err != io.ErrUnexpectedEOF {
			t.Errorf("cut=%d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		cn.Close()
	}
}

func TestFrameRejectsZeroLength(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		b.Write([]byte{0, 0, 0, 0})
		b.Close()
	}()
	if _, _, err := NewConn(a).ReadFrame(); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	// The cap still admits the largest legal request: the most terms
	// DecodeServeQuery accepts, each the widest id.
	widest := ServeQuery{From: 1 << 31, Terms: make([]uint32, 1<<16)}
	for i := range widest.Terms {
		widest.Terms[i] = 1 << 31
	}
	if n := len(widest.Encode(nil)) + 1; n > MaxFrame {
		t.Fatalf("largest legal query frame is %d bytes, over MaxFrame %d", n, MaxFrame)
	}

	// Write side: the length check fires before any bytes move.
	ca, _ := pipePair(t)
	big := make([]byte, MaxFrame) // n = MaxFrame+1 once the type byte counts
	err := ca.WriteFrame(MServeQuery, big)
	var tooBig ErrFrameTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("WriteFrame(MaxFrame payload) = %v, want ErrFrameTooLarge", err)
	}

	// Read side: a forged header is rejected before allocating the body.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		b.Write(hdr[:])
		b.Close()
	}()
	_, _, err = NewConn(a).ReadFrame()
	if !errors.As(err, &tooBig) {
		t.Fatalf("ReadFrame(forged %d header) = %v, want ErrFrameTooLarge", MaxFrame+1, err)
	}
}

func TestMemTransportRoundTrip(t *testing.T) {
	var tp Mem
	ln, err := tp.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := tp.Dial("mem:999999"); err == nil {
		t.Fatal("dial of an unbound mem address succeeded")
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		typ, p, err := c.ReadFrame()
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		c.WriteFrame(typ, p)
		c.Close()
	}()
	c, err := tp.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteFrame(MServeQuery, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	typ, p, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MServeQuery || string(p) != "ping" {
		t.Fatalf("echo = (%d, %q)", typ, p)
	}
}
