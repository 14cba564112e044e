// Package transport carries the serving plane's binary protocol: length-
// prefixed frames over a byte stream, the MServe* request/reply payload
// codecs, and two interchangeable backends — TCP sockets for the asapnode
// daemon's binary endpoint, and an in-memory pipe registry so tests and
// benchmarks can drive the same endpoint without the network stack.
// Addresses are backend-specific strings (TCP "host:port", Mem "mem:n").
package transport

import (
	"fmt"
	"net"
	"sync"
)

// Listener accepts inbound connections.
type Listener interface {
	Accept() (*Conn, error)
	// Addr returns the bound address in the form Dial accepts — for TCP
	// with a ":0" listen address, the kernel-assigned port.
	Addr() string
	Close() error
}

// TCP is the socket backend.
type TCP struct{}

// Listen binds a TCP listener; "127.0.0.1:0" picks a free loopback port.
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{l}, nil
}

// Dial connects to a TCP address.
func (TCP) Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

type tcpListener struct{ l net.Listener }

func (t tcpListener) Accept() (*Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

func (t tcpListener) Addr() string { return t.l.Addr().String() }
func (t tcpListener) Close() error { return t.l.Close() }

// Mem is the in-process backend: listeners register in a shared table
// and Dial splices the two ends with net.Pipe. The zero value is ready to
// use; all Mem values share one address space.
type Mem struct{}

var memReg = struct {
	sync.Mutex
	next      int
	listeners map[string]*memListener
}{listeners: map[string]*memListener{}}

// Listen binds an in-memory listener. "mem:0" (or "") allocates a fresh
// address; anything else must be unbound.
func (Mem) Listen(addr string) (Listener, error) {
	memReg.Lock()
	defer memReg.Unlock()
	if addr == "" || addr == "mem:0" {
		memReg.next++
		addr = fmt.Sprintf("mem:%d", memReg.next)
	}
	if _, taken := memReg.listeners[addr]; taken {
		return nil, fmt.Errorf("transport: %s already bound", addr)
	}
	ln := &memListener{addr: addr, ch: make(chan *Conn), done: make(chan struct{})}
	memReg.listeners[addr] = ln
	return ln, nil
}

// Dial connects to a bound in-memory listener.
func (Mem) Dial(addr string) (*Conn, error) {
	memReg.Lock()
	ln := memReg.listeners[addr]
	memReg.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("transport: no listener at %s", addr)
	}
	a, b := net.Pipe()
	select {
	case ln.ch <- NewConn(b):
		return NewConn(a), nil
	case <-ln.done:
		return nil, fmt.Errorf("transport: %s closed", addr)
	}
}

type memListener struct {
	addr      string
	ch        chan *Conn
	done      chan struct{}
	closeOnce sync.Once
}

func (ln *memListener) Accept() (*Conn, error) {
	select {
	case c := <-ln.ch:
		return c, nil
	case <-ln.done:
		return nil, fmt.Errorf("transport: %s closed", ln.addr)
	}
}

func (ln *memListener) Addr() string { return ln.addr }

func (ln *memListener) Close() error {
	ln.closeOnce.Do(func() {
		close(ln.done)
		memReg.Lock()
		delete(memReg.listeners, ln.addr)
		memReg.Unlock()
	})
	return nil
}
