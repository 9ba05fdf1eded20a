// Package hostsim implements the simulated edge hosts: small servers that
// speak genuine HTTP/1.1, TLS 1.2, and SSH transport bytes over a net.Conn.
// The simulation fabric spawns one of these per accepted connection; the
// ZGrab grabbers on the other end of the pipe cannot tell them from real
// servers, which is the point — the grab code path is fully exercised.
package hostsim

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sshwire"
	"repro/internal/tlslite"
)

// Server serves host personalities derived from a key: server software
// banners, certificate blobs, and SSH versions vary per host but are stable
// across trials, as real hosts are.
type Server struct {
	key rng.Key
	// kexKey and kexInit are the SSH KEXINIT template: every host sends
	// the same algorithm lists, so the payload is encoded once and only
	// its keyed cookie is patched per connection.
	kexKey  rng.Key
	kexInit []byte
}

// NewServer returns a host simulator deriving personalities from key.
func NewServer(key rng.Key) *Server {
	s := &Server{key: key.Derive("hostsim")}
	s.kexKey = s.key.Derive("kex")
	s.kexInit = sshwire.DefaultKexInit(s.kexKey).Append(nil)
	return s
}

// conv is one served connection's reusable scratch: the read buffer, the
// flight being encoded, the protocol decoders' storage, and the inline
// path's conn. Pooled, so serving a connection reuses all of it.
type conv struct {
	br     bufio.Reader
	out    []byte // the response flight, sent with one Write
	body   []byte // HTTP response body
	req    httpwire.Request
	hs     tlslite.HandshakeReader
	ch     tlslite.ClientHello
	inline inlineConn
}

var convs = sync.Pool{New: func() any { return new(conv) }}

// put returns c to the pool without pinning the connection it served.
func (c *conv) put() {
	c.br.Reset(nil)
	c.hs.Reset(nil)
	c.inline = inlineConn{}
	convs.Put(c)
}

// Serve handles one accepted connection to host for the given protocol and
// closes conn when done. It is designed to run in its own goroutine.
func (s *Server) Serve(conn net.Conn, host ip.Addr, p proto.Protocol) {
	defer conn.Close()
	c := convs.Get().(*conv)
	defer c.put()
	s.serve(c, conn, host, p)
}

// ServeInline handles one connection's exchange synchronously in the
// caller's goroutine: in holds every byte the client has written so far,
// and the server's whole response flight is appended to out. All three
// protocols are turn-based single-flight exchanges — the client writes its
// complete opening flight before reading, and the server's flight depends
// only on that flight (SSH's server ID/KEXINIT not even on that) — so
// reads past the client bytes see io.EOF exactly where a Serve goroutine
// would see the client's half-close, and the bytes appended to out are
// identical to what Serve would have streamed through a vconn pipe. This
// is the grab fast path's server side: zero goroutines, zero
// synchronization, and — with the pooled scratch warm — no allocation
// beyond out's growth, except the one string sshwire.ReadID makes of an
// SSH client's identification line.
func (s *Server) ServeInline(out *bytes.Buffer, in []byte, host ip.Addr, p proto.Protocol) {
	c := convs.Get().(*conv)
	defer c.put()
	c.inline.in.Reset(in)
	c.inline.out = out
	s.serve(c, &c.inline, host, p)
}

// serve runs host's side of one connection with c as its scratch.
func (s *Server) serve(c *conv, conn net.Conn, host ip.Addr, p proto.Protocol) {
	c.br.Reset(conn)
	switch p {
	case proto.HTTP:
		s.serveHTTP(c, conn, host)
	case proto.HTTPS:
		s.serveTLS(c, conn, host)
	case proto.SSH:
		s.serveSSH(c, conn, host)
	}
}

// inlineConn adapts a fully-buffered exchange to net.Conn for the serve
// functions: reads drain the client's flight (then io.EOF, the half-close
// a goroutine server sees once the client stops writing), writes append
// to the response buffer. It lives in the pooled conv.
type inlineConn struct {
	in  bytes.Reader
	out *bytes.Buffer
}

func (c *inlineConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *inlineConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *inlineConn) Close() error                     { return nil }
func (c *inlineConn) LocalAddr() net.Addr              { return inlineAddr{} }
func (c *inlineConn) RemoteAddr() net.Addr             { return inlineAddr{} }
func (c *inlineConn) SetDeadline(time.Time) error      { return nil }
func (c *inlineConn) SetReadDeadline(time.Time) error  { return nil }
func (c *inlineConn) SetWriteDeadline(time.Time) error { return nil }

// inlineAddr is the placeholder endpoint for inline exchanges; the serve
// functions never read connection addresses.
type inlineAddr struct{}

func (inlineAddr) Network() string { return "inline" }
func (inlineAddr) String() string  { return "inline" }

var httpServers = []string{
	"nginx", "nginx/1.14.0", "Apache", "Apache/2.4.29 (Ubuntu)",
	"Microsoft-IIS/10.0", "lighttpd/1.4.45", "openresty",
}

// serveHTTP answers one GET with a small page.
func (s *Server) serveHTTP(c *conv, conn net.Conn, host ip.Addr) {
	if err := httpwire.ReadRequest(&c.br, &c.req); err != nil {
		return
	}
	software := httpServers[int(s.key.Uint64(host.Word64(), 1)%uint64(len(httpServers)))]
	b := append(c.body[:0], "<html><head><title>"...)
	h0 := len(b)
	b = host.AppendTo(b)
	h1 := len(b)
	b = append(b, "</title></head><body>host "...)
	b = append(b, b[h0:h1]...)
	b = append(b, " says hello to "...)
	b = append(b, c.req.Method...)
	b = append(b, ' ')
	b = append(b, c.req.Target...)
	c.body = append(b, "</body></html>"...)
	c.out = httpwire.AppendResponse(c.out[:0], 200, "OK",
		[]httpwire.Header{
			{Name: "Server", Value: software},
			{Name: "Content-Type", Value: "text/html"},
		}, c.body)
	_, _ = conn.Write(c.out)
}

// serveTLS completes the server's first handshake flight: ServerHello,
// Certificate, ServerHelloDone. The grab terminates there, as the paper's
// TLS handshake capture does.
func (s *Server) serveTLS(c *conv, conn net.Conn, host ip.Addr) {
	c.hs.Reset(conn)
	typ, body, err := c.hs.Next()
	if err != nil || typ != tlslite.TypeClientHello {
		return
	}
	if err := tlslite.ParseClientHello(body, &c.ch); err != nil || len(c.ch.CipherSuites) == 0 {
		c.out = tlslite.AppendAlert(c.out[:0], 2, 40) // fatal handshake_failure
		_, _ = conn.Write(c.out)
		return
	}
	// Pick the client's highest-preference suite we "support": first
	// offered, like a server honoring client preference.
	sh := tlslite.ServerHello{
		Version:     tlslite.VersionTLS12,
		CipherSuite: c.ch.CipherSuites[0],
	}
	stream := s.key.Stream(host.Word64(), 2)
	for i := 0; i < 32; i += 8 {
		v := stream.Uint64()
		for j := 0; j < 8; j++ {
			sh.Random[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	out, err := sh.Append(c.out[:0])
	if err != nil {
		return
	}
	if out, err = s.appendCert(out, host); err != nil {
		return
	}
	c.out = tlslite.AppendServerHelloDone(out)
	_, _ = conn.Write(c.out)
}

// appendCert appends the host's Certificate message to b, synthesizing a
// stable pseudo-DER certificate straight into it: 600–999 opaque bytes
// with a DER-ish SEQUENCE framing, unique per host.
func (s *Server) appendCert(b []byte, host ip.Addr) ([]byte, error) {
	stream := s.key.Stream(host.Word64(), 3)
	n := 600 + int(stream.Uint64()%400)
	b, blob, err := tlslite.AppendCertificate(b, n)
	if err != nil {
		return b, err
	}
	for i := 0; i < n; i += 8 {
		v := stream.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			blob[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	blob[0] = 0x30 // SEQUENCE
	blob[1] = 0x82 // long form, 2 length bytes
	blob[2] = byte((n - 4) >> 8)
	blob[3] = byte(n - 4)
	return b, nil
}

var sshVersions = []string{
	"OpenSSH_7.4", "OpenSSH_7.9p1", "OpenSSH_8.2p1", "dropbear_2019.78",
	"OpenSSH_6.6.1", "OpenSSH_8.0",
}

// serveSSH sends the identification string and KEXINIT as one flight, then
// reads the client's ID and KEXINIT before closing. The grab terminates
// after the version exchange per the paper's methodology.
func (s *Server) serveSSH(c *conv, conn net.Conn, host ip.Addr) {
	version := sshVersions[int(s.key.Uint64(host.Word64(), 4)%uint64(len(sshVersions)))]
	out, err := sshwire.AppendID(c.out[:0], sshwire.ID{ProtoVersion: "2.0", SoftwareVersion: version})
	if err != nil {
		return
	}
	pkt := len(out)
	if out, err = sshwire.AppendPacket(out, s.kexInit); err != nil {
		return
	}
	cookie := out[pkt+sshwire.PacketHeaderLen+sshwire.CookieOffset:]
	sshwire.PutCookie(cookie, s.kexKey.DeriveN("host", host.Word64()))
	c.out = out
	if _, err := conn.Write(c.out); err != nil {
		return
	}
	if _, err := sshwire.ReadID(&c.br); err != nil {
		return
	}
	// Client may send its KEXINIT; read and discard if so, into the
	// flight buffer (already written).
	c.out, _ = sshwire.ReadPacket(c.out[:0], &c.br)
}
