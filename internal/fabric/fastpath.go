// The grab path: batched pre-dial evaluation plus inline-served, pooled
// connections. At Scale=1.0 the grab stage performs ~53M L7 handshakes, so
// no connection may pay for a pipe or a server goroutine. The dial is
// split in two: Predial/PredialBatch run the entire decision chain
// (routing, protocol, churn, policy, IDS, outages/episodes, handshake
// loss) without touching connection setup — safe because every decision
// is a keyed hash of the event coordinates and the grab-time IDS view is
// read-only — and ConnectFast materializes accepting verdicts as pooled
// fastConns whose server side runs inline in the grabber's goroutine
// (hostsim.ServeInline). The goroutine-per-connection dial this replaced
// survives only in the package tests, as the reference the differential
// tests pin this path against.
package fabric

import (
	"bytes"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// Predial implements zgrab.Dialer: evaluate one dial's verdict without
// opening a connection. Safe for concurrent use (pooled queries, no shared
// scratch).
func (f *Fabric) Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	return f.predialEval(dst, f.fib.Resolve(dst), port, t, attempt)
}

// PredialBatch implements zgrab.Dialer: evaluate attempt 0 for a whole
// grab window, resolving the FIB in bulk first (same-/24 neighbors share
// directory ranks). Single-caller by contract: it reuses the fabric's
// resolution scratch.
func (f *Fabric) PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []zgrab.DialVerdict) {
	if cap(f.preDests) < len(dsts) {
		f.preDests = make([]world.Dest, len(dsts))
	}
	dests := f.preDests[:len(dsts)]
	f.fib.ResolveBatch(dsts, dests)
	for i, dst := range dsts {
		out[i] = f.predialEval(dst, dests[i], port, ts[i], 0)
	}
}

// predialEval is the connectionless dial decision chain; the order in which
// policy and IDS verdicts, path conditions, and handshake loss are
// consulted is pinned against the reference dial by TestPredialMatchesDial.
// The accepting verdicts defer their connection effects (reset /
// half-close / serve) to ConnectFast.
func (f *Fabric) predialEval(dst ip.Addr, d world.Dest, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	if !d.Routed {
		return zgrab.DialTimeout
	}
	p, isProto := proto.FromPort(port)
	if !isProto {
		return zgrab.DialRefused
	}
	if d.Host && f.cfg.Churn.Offline(dst, f.trial) {
		return zgrab.DialTimeout
	}
	src := origin.SourceFor(f.org.SourceIPs, dst)
	q := f.query(src, dst, d, p, t, attempt)
	defer f.release(q)

	verdict, _ := f.cfg.Engine.Evaluate(q)
	for _, ids := range f.cfg.IDSes {
		if v, ok := ids.Evaluate(q); ok && v == policy.Silent {
			return zgrab.DialTimeout
		}
	}
	switch verdict {
	case policy.Silent:
		return zgrab.DialTimeout
	case policy.RefuseTCP:
		return zgrab.DialRefused
	}
	if f.pathDown(dst, d.AS, t) {
		return zgrab.DialTimeout
	}
	if !d.Host || !d.Services.Has(p) {
		return zgrab.DialRefused
	}
	if f.cfg.Loss.HandshakeFailed(f.org.ID, dst, d.AS.Number, f.trial, attempt) {
		return zgrab.DialTimeout
	}
	switch verdict {
	case policy.ResetAfterAccept:
		return zgrab.DialReset
	case policy.CloseAfterAccept:
		return zgrab.DialHalfClose
	}
	return zgrab.DialConnect
}

// ConnectFast implements zgrab.Dialer: turn an accepting verdict into a
// pooled connection. Only served connections count toward ConnsOpened.
func (f *Fabric) ConnectFast(dst ip.Addr, port uint16, v zgrab.DialVerdict) net.Conn {
	p, _ := proto.FromPort(port)
	c := fastConns.Get().(*fastConn)
	c.fab = f
	c.host = dst
	c.prot = p
	c.served = false
	c.closed = false
	switch v {
	case zgrab.DialReset:
		c.state = fastReset
	case zgrab.DialHalfClose:
		c.state = fastHalfClosed
	default:
		c.state = fastServe
		f.opened.Add(1)
	}
	return c
}

// fastConns recycles fastConn objects (and their grown in/out buffers)
// across grabs; Close returns the conn to the pool.
var fastConns = sync.Pool{New: func() any { return new(fastConn) }}

const (
	// fastServe: accepted; the host serves inline on the first read.
	fastServe uint8 = iota
	// fastReset: accepted then reset before the client saw the conn
	// (policy.ResetAfterAccept) — reads and writes see ECONNRESET.
	fastReset
	// fastHalfClosed: accepted then FIN (policy.CloseAfterAccept) —
	// writes are accepted, reads see io.EOF.
	fastHalfClosed
)

// fastConn is an inline-served client connection: client writes accumulate
// in `in`; the first read runs the host's whole response flight via
// hostsim.ServeInline and then drains it, followed by io.EOF (the server's
// orderly close). That is byte-identical to a goroutine-served pipe for the
// turn-based grabbers, which write their complete opening flight before
// reading — a client that interleaved reads into an unfinished flight
// would see EOF where a live server would block, which no grabber does.
type fastConn struct {
	fab    *Fabric
	host   ip.Addr
	prot   proto.Protocol
	state  uint8
	served bool
	closed bool
	in     bytes.Buffer
	outBuf bytes.Buffer
	out    bytes.Reader
}

var _ net.Conn = (*fastConn)(nil)

// Read implements net.Conn. The one-shot inline serve runs on the first
// read of an accepted conn; once the response flight drains, io.EOF.
func (c *fastConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	switch c.state {
	case fastReset:
		return 0, syscall.ECONNRESET
	case fastHalfClosed:
		return 0, io.EOF
	}
	if !c.served {
		c.served = true
		c.fab.cfg.Hosts.ServeInline(&c.outBuf, c.in.Bytes(), c.host, c.prot)
		c.out.Reset(c.outBuf.Bytes())
	}
	return c.out.Read(p)
}

// Write implements net.Conn.
func (c *fastConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	switch c.state {
	case fastReset:
		return 0, syscall.ECONNRESET
	case fastHalfClosed:
		// The server half-closed only its direction: client writes are
		// accepted (and, with no reader left, discarded).
		return len(p), nil
	}
	if c.served {
		// The inline server already ran its single flight and closed;
		// writing to a closed reader is an RST.
		return 0, syscall.ECONNRESET
	}
	return c.in.Write(p)
}

// Close returns the conn to the pool. Idempotent.
func (c *fastConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.in.Reset()
	c.outBuf.Reset()
	c.out.Reset(nil)
	c.fab = nil
	fastConns.Put(c)
	return nil
}

// LocalAddr implements net.Conn; the source is derived lazily — grabbers
// never read connection addresses.
func (c *fastConn) LocalAddr() net.Addr {
	return connAddr(origin.SourceFor(c.fab.org.SourceIPs, c.host))
}

// RemoteAddr implements net.Conn.
func (c *fastConn) RemoteAddr() net.Addr { return connAddr(c.host) }

// connAddr is a fastConn endpoint. It formats the address only when
// String is called: net.Conn requires addresses, but grabbers never read
// them, so a dial must not pay for the conversion up front.
type connAddr ip.Addr

// Network returns the virtual network name.
func (a connAddr) Network() string { return "vtcp" }

// String formats the endpoint address.
func (a connAddr) String() string { return ip.Addr(a).String() }

// SetDeadline implements net.Conn: inline reads never block, so deadlines
// are no-ops.
func (c *fastConn) SetDeadline(time.Time) error      { return nil }
func (c *fastConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fastConn) SetWriteDeadline(time.Time) error { return nil }
