// Package vconn provides an in-memory, full-duplex net.Conn pair with
// deadline support and TCP-style abort semantics (RST), used as the
// transport between ZGrab application-layer grabbers and simulated hosts.
// Unlike net.Pipe, writes are buffered (a small window, like a TCP send
// buffer), and either side can Abort the connection so the peer observes
// "connection reset by peer" — the behaviour the paper documents for
// Alibaba's SSH blocking and MaxStartups refusals.
package vconn

import (
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/ip"
)

// Errors surfaced by aborted connections.
var (
	// ErrReset is returned from Read/Write after the peer aborts the
	// connection (TCP RST semantics). It wraps syscall.ECONNRESET, the
	// errno a real TCP reset carries, so callers classify both alike.
	ErrReset = fmt.Errorf("vconn: %w", syscall.ECONNRESET)
)

// Addr is the net.Addr implementation for virtual connections. It stores
// the endpoint's address value and formats it only when String is called:
// net.Conn requires addresses, but the grab path never reads them, so a
// dial must not pay for two ip.Addr → string conversions up front.
type Addr struct {
	// IP is the endpoint address; String formats it lazily.
	IP ip.Addr
	// Label, when non-empty, overrides IP as the displayed endpoint
	// (tests and tools that don't model addresses).
	Label string
}

// Network returns the virtual network name.
func (a Addr) Network() string { return "vtcp" }

// String returns the endpoint label, formatting the address on demand.
func (a Addr) String() string {
	if a.Label != "" {
		return a.Label
	}
	return a.IP.String()
}

const defaultWindow = 64 * 1024

// Pipe returns a connected pair of virtual connections between the two
// endpoint addresses. Data written to one side becomes readable on the
// other. Each direction buffers up to a window of bytes; writes beyond the
// window block until the reader drains. Endpoint labels are formatted
// lazily by Addr.String, so creating a pipe does no string work.
func Pipe(client, server ip.Addr) (clientConn, serverConn *Conn) {
	return pipe(Addr{IP: client}, Addr{IP: server})
}

// PipeLabeled is Pipe with explicit endpoint labels instead of addresses,
// for tests and tools that don't model IP endpoints.
func PipeLabeled(clientLabel, serverLabel string) (client, server *Conn) {
	return pipe(Addr{Label: clientLabel}, Addr{Label: serverLabel})
}

func pipe(clientAddr, serverAddr Addr) (client, server *Conn) {
	ab := newBuffer()
	ba := newBuffer()
	client = &Conn{
		read: ba, write: ab,
		local:  clientAddr,
		remote: serverAddr,
	}
	server = &Conn{
		read: ab, write: ba,
		local:  serverAddr,
		remote: clientAddr,
	}
	client.peer, server.peer = server, client
	return client, server
}

// Conn is one endpoint of a virtual connection. It implements net.Conn.
type Conn struct {
	read, write   *buffer
	local, remote Addr
	peer          *Conn

	mu       sync.Mutex
	closed   bool
	deadline struct {
		read, write time.Time
	}
}

var _ net.Conn = (*Conn)(nil)

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	dl := c.deadline.read
	c.mu.Unlock()
	return c.read.read(p, dl)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	dl := c.deadline.write
	c.mu.Unlock()
	return c.write.write(p, dl)
}

// Close performs an orderly shutdown (FIN semantics): the peer reads any
// buffered data, then io.EOF.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.write.closeWrite(io.EOF)
	c.read.closeRead()
	return nil
}

// CloseWrite performs a half-close (FIN semantics, like
// net.TCPConn.CloseWrite): the peer reads any buffered data, then io.EOF,
// while the peer's writes continue to be accepted. Unlike Close, the
// outcome the peer observes does not depend on whether its first write
// races the close.
func (c *Conn) CloseWrite() error {
	c.write.closeWrite(io.EOF)
	return nil
}

// Abort resets the connection (RST semantics): the peer's pending and
// future reads and writes fail with ErrReset, discarding buffered data.
func (c *Conn) Abort() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.write.abort(ErrReset)
	c.read.abort(ErrReset)
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline.read, c.deadline.write = t, t
	c.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline.read = t
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline.write = t
	c.mu.Unlock()
	return nil
}

// timeoutError satisfies net.Error for deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "vconn: deadline exceeded" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// buffer is one direction of the pipe.
type buffer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	data    []byte
	eofErr  error // set when writer closed (io.EOF) or aborted (ErrReset)
	rClosed bool  // reader side gone
	aborted bool
}

func newBuffer() *buffer {
	b := &buffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *buffer) read(p []byte, deadline time.Time) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	timer := b.watchDeadline(deadline)
	if timer != nil {
		defer timer.Stop()
	}
	for {
		if b.aborted {
			return 0, ErrReset
		}
		if len(b.data) > 0 {
			n := copy(p, b.data)
			b.data = b.data[n:]
			b.cond.Broadcast()
			return n, nil
		}
		if b.eofErr != nil {
			return 0, b.eofErr
		}
		if expired(deadline) {
			return 0, timeoutError{}
		}
		b.cond.Wait()
	}
}

func (b *buffer) write(p []byte, deadline time.Time) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	timer := b.watchDeadline(deadline)
	if timer != nil {
		defer timer.Stop()
	}
	written := 0
	for len(p) > 0 {
		if b.aborted {
			return written, ErrReset
		}
		if b.eofErr != nil {
			return written, net.ErrClosed
		}
		if b.rClosed {
			return written, ErrReset // writing to a closed reader: EPIPE/RST
		}
		if room := defaultWindow - len(b.data); room > 0 {
			n := min(room, len(p))
			b.data = append(b.data, p[:n]...)
			p = p[n:]
			written += n
			b.cond.Broadcast()
			continue
		}
		if expired(deadline) {
			return written, timeoutError{}
		}
		b.cond.Wait()
	}
	return written, nil
}

// watchDeadline arranges a wakeup at the deadline so blocked readers and
// writers re-check expiry.
func (b *buffer) watchDeadline(deadline time.Time) *time.Timer {
	if deadline.IsZero() {
		return nil
	}
	d := time.Until(deadline)
	if d < 0 {
		d = 0
	}
	return time.AfterFunc(d, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

func (b *buffer) closeWrite(err error) {
	b.mu.Lock()
	if b.eofErr == nil {
		b.eofErr = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *buffer) closeRead() {
	b.mu.Lock()
	b.rClosed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *buffer) abort(err error) {
	b.mu.Lock()
	b.aborted = true
	b.data = nil
	if b.eofErr == nil {
		b.eofErr = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
