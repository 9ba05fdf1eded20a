// Package zgrab implements the application-layer handshake grabbers the
// study runs against every L4-responsive host: an HTTP GET /, a TLS 1.2
// handshake with Chrome's cipher suites, and an SSH handshake that
// terminates after the protocol version exchange — the same three grabs the
// paper performs with ZGrab. Grabbers speak real protocol bytes over any
// net.Conn and classify failures the way the paper's analysis needs them
// (timeout vs refused vs reset vs closed-before-banner).
package zgrab

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sshwire"
	"repro/internal/telemetry"
	"repro/internal/tlslite"
	"repro/internal/vconn"
)

// FailMode classifies why a grab failed; §6 of the paper distinguishes
// hosts that drop connections from hosts that explicitly close or reset.
type FailMode uint8

const (
	FailNone    FailMode = iota
	FailTimeout          // connection or read timed out / silently dropped
	FailRefused          // TCP connection refused (RST to SYN)
	FailReset            // connection reset after establishment
	FailClosed           // closed (FIN) before the protocol banner
	FailProto            // peer spoke, but not the protocol
)

var failNames = [...]string{"none", "timeout", "refused", "reset", "closed", "proto"}

// String returns the failure-mode name.
func (f FailMode) String() string {
	if int(f) < len(failNames) {
		return failNames[f]
	}
	return "fail(?)"
}

// Result is the outcome of one grab.
type Result struct {
	Proto    proto.Protocol
	Success  bool
	Fail     FailMode
	Banner   string // server software: HTTP Server header, SSH version, TLS suite
	Attempts int    // connection attempts used (≥1)
}

// Dialer abstracts the transport: the simulation fabric implements it, and
// netDialer adapts real TCP for tests/tools.
type Dialer interface {
	// Dial opens a connection to dst:port for the attempt-th try at
	// virtual time t. Implementations must respect ctx cancellation: a
	// canceled context fails the dial (the grabber classifies it as a
	// timeout and stops retrying).
	Dial(ctx context.Context, dst ip.Addr, port uint16, t time.Duration, attempt int) (net.Conn, error)
}

// Sentinel errors a Dialer can return to signal L4 failure modes.
var (
	ErrTimeout = errors.New("zgrab: connection timed out")
	ErrRefused = errors.New("zgrab: connection refused")
)

// DialVerdict is a dial decision computed without opening a connection:
// the batched fast path evaluates a whole grab window's routing, churn,
// policy/IDS, path, and handshake-loss checks up front, so the ~80% of
// attempts that die at L4 never touch connection setup.
type DialVerdict uint8

const (
	// DialTimeout: the connection would hang (unrouted, offline, silent
	// policy, IDS block, path down, or handshake loss).
	DialTimeout DialVerdict = iota
	// DialRefused: the SYN would draw an RST (refusing policy or closed
	// port on a live host).
	DialRefused
	// DialReset: accepted, then reset before the application speaks
	// (policy.ResetAfterAccept — the Alibaba SSH signature).
	DialReset
	// DialHalfClose: accepted, then FIN before the application speaks
	// (policy.CloseAfterAccept — the MaxStartups signature).
	DialHalfClose
	// DialConnect: accepted and served.
	DialConnect
)

// FastDialer is the batched fast path a Dialer may additionally support:
// verdicts are precomputed per window (PredialBatch) or per retry attempt
// (Predial), and ConnectFast turns a would-accept verdict into a pooled,
// inline-served connection with no goroutine behind it. Implementations
// must guarantee Predial+ConnectFast observe exactly the decision sequence
// Dial observes, so GrabFast results are bit-identical to Grab.
type FastDialer interface {
	Dialer
	// Predial evaluates one dial without connecting. Safe for concurrent
	// use (the grab worker pool retries concurrently).
	Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) DialVerdict
	// PredialBatch evaluates attempt 0 for a whole window of
	// destinations into out (len(out) == len(dsts) == len(ts)). Batching
	// lets the implementation resolve routing in bulk. NOT safe for
	// concurrent use with itself — one caller owns the window.
	PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []DialVerdict)
	// ConnectFast materializes a connection for an accepting verdict
	// (DialReset, DialHalfClose, or DialConnect).
	ConnectFast(dst ip.Addr, port uint16, v DialVerdict) net.Conn
}

// Grabber runs grabs through a Dialer with a retry budget.
type Grabber struct {
	Dialer Dialer
	// Retries is the number of additional connection attempts after a
	// failed handshake (0 = single attempt). The paper's §6 experiment
	// retries SSH up to 8 times.
	Retries int
	// Key derives the client randoms for TLS.
	Key rng.Key
	// IOTimeout bounds each read/write on real connections (default 10s;
	// virtual connections complete instantly so it rarely matters).
	IOTimeout time.Duration
	// Metrics, when set, counts dials, handshakes, retries, and failure
	// modes for this grabber's scan. The grab path is per-host, so each
	// attempt updates the (atomic, nil-safe) counters directly.
	Metrics *telemetry.GrabMetrics
}

// count records one attempt's outcome into the grabber's metric bundle.
// All instrument methods are nil-safe, so a disabled bundle costs one nil
// check here.
func (g *Grabber) count(res *Result, attempt int) {
	m := g.Metrics
	if m == nil {
		return
	}
	m.Dials.Inc()
	if attempt > 0 {
		m.Retries.Inc()
	}
	if res.Success {
		m.Handshakes.Inc()
		return
	}
	switch res.Fail {
	case FailRefused:
		m.Refused.Inc()
	case FailReset:
		m.Resets.Inc()
	case FailTimeout:
		m.Timeouts.Inc()
	case FailClosed:
		m.Closed.Inc()
	case FailProto:
		m.ProtoErrs.Inc()
	}
}

// Grab performs the grab for p against dst at virtual time t, retrying per
// the grabber's budget. A canceled context stops the retry loop after the
// in-flight attempt; the last attempt's (failed) result is returned so the
// caller, which is being torn down anyway, still sees a well-formed value.
func (g *Grabber) Grab(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration) Result {
	var last Result
	for attempt := 0; attempt <= g.Retries; attempt++ {
		var began time.Time
		if g.Metrics != nil {
			began = time.Now()
		}
		last = g.grabOnce(ctx, p, dst, t, attempt)
		last.Attempts = attempt + 1
		g.count(&last, attempt)
		if last.Success || ctx.Err() != nil {
			return last
		}
		// Refused and timed-out connections are retried like any
		// other failure: §6 shows immediate retries recover
		// MaxStartups hosts. RetrySeconds attributes the wall time
		// those extra attempts cost a grab worker.
		if g.Metrics != nil && attempt < g.Retries {
			g.Metrics.RetrySeconds.ObserveDuration(time.Since(began))
		}
	}
	return last
}

func (g *Grabber) grabOnce(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration, attempt int) Result {
	res := Result{Proto: p}
	// The dial vs handshake latency split reads the clock only with a
	// live bundle: a disabled grabber pays two nil checks per attempt.
	var dialStart time.Time
	if g.Metrics != nil {
		dialStart = time.Now()
	}
	conn, err := g.Dialer.Dial(ctx, dst, p.Port(), t, attempt)
	if g.Metrics != nil {
		g.Metrics.DialSeconds.ObserveDuration(time.Since(dialStart))
	}
	if err != nil {
		res.Fail = classifyDialError(err)
		return res
	}
	defer conn.Close()
	if g.IOTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(g.IOTimeout))
	}
	g.exchange(conn, p, dst, &res)
	return res
}

// exchange runs the application-layer handshake on an established
// connection, shared by the reference and fast grab paths.
func (g *Grabber) exchange(conn net.Conn, p proto.Protocol, dst ip.Addr, res *Result) {
	var hsStart time.Time
	if g.Metrics != nil {
		hsStart = time.Now()
	}
	sc := scratches.Get().(*scratch)
	switch p {
	case proto.HTTP:
		grabHTTP(sc, conn, dst, res)
	case proto.HTTPS:
		grabTLS(sc, conn, dst, g.Key, res)
	case proto.SSH:
		grabSSH(sc, conn, res)
	}
	sc.put()
	if g.Metrics != nil {
		g.Metrics.HandshakeSeconds.ObserveDuration(time.Since(hsStart))
	}
}

// scratch is one grab's reusable exchange state: the encoded client
// flight, the read buffer, and the decoders' storage. Pooled, so a grab
// allocates nothing for its exchange once the pool is warm; the only
// per-grab garbage is the Result's banner, which is always a fresh string
// (it outlives the grab in the result store, so it must never alias
// scratch memory).
type scratch struct {
	out  []byte
	sni  []byte
	br   bufio.Reader
	cr   countingReader
	resp httpwire.Response
	hs   tlslite.HandshakeReader
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// put returns sc to the pool without pinning the connection it read.
func (sc *scratch) put() {
	sc.br.Reset(nil)
	sc.cr = countingReader{}
	sc.hs.Reset(nil)
	scratches.Put(sc)
}

// GrabFast performs the grab for p against dst on the batched fast path:
// v is attempt 0's verdict, precomputed by PredialBatch over the grab
// window; retry attempts re-evaluate through Predial (verdicts depend on
// the attempt number — MaxStartups hosts admit immediate retries). The
// retry loop, metric accounting, and failure classification mirror Grab
// exactly; the Dialer must implement FastDialer. Results are bit-identical
// to Grab (enforced by the fabric and experiment differential tests).
func (g *Grabber) GrabFast(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration, v DialVerdict) Result {
	fd := g.Dialer.(FastDialer)
	var last Result
	for attempt := 0; attempt <= g.Retries; attempt++ {
		var began time.Time
		if g.Metrics != nil {
			began = time.Now()
		}
		last = g.grabOnceFast(ctx, fd, p, dst, t, attempt, v)
		last.Attempts = attempt + 1
		g.count(&last, attempt)
		if last.Success || ctx.Err() != nil {
			return last
		}
		if g.Metrics != nil && attempt < g.Retries {
			g.Metrics.RetrySeconds.ObserveDuration(time.Since(began))
		}
	}
	return last
}

func (g *Grabber) grabOnceFast(ctx context.Context, fd FastDialer, p proto.Protocol, dst ip.Addr, t time.Duration, attempt int, v DialVerdict) Result {
	res := Result{Proto: p}
	var dialStart time.Time
	if g.Metrics != nil {
		dialStart = time.Now()
	}
	// The reference dial fails a canceled context immediately, classified
	// as a timeout; re-checked per attempt, like Dial is called per
	// attempt.
	if ctx.Err() != nil {
		res.Fail = FailTimeout
		if g.Metrics != nil {
			g.Metrics.DialSeconds.ObserveDuration(time.Since(dialStart))
		}
		return res
	}
	if attempt > 0 {
		v = fd.Predial(dst, p.Port(), t, attempt)
	}
	if v == DialTimeout || v == DialRefused {
		if v == DialTimeout {
			res.Fail = FailTimeout
		} else {
			res.Fail = FailRefused
		}
		if g.Metrics != nil {
			g.Metrics.DialSeconds.ObserveDuration(time.Since(dialStart))
		}
		return res
	}
	conn := fd.ConnectFast(dst, p.Port(), v)
	if g.Metrics != nil {
		g.Metrics.DialSeconds.ObserveDuration(time.Since(dialStart))
	}
	defer conn.Close()
	// No deadline: fast-path connections are fully in-memory, reads never
	// block, so the IOTimeout clock reads would be pure overhead.
	g.exchange(conn, p, dst, &res)
	return res
}

func classifyDialError(err error) FailMode {
	switch {
	case errors.Is(err, ErrRefused):
		return FailRefused
	case errors.Is(err, ErrTimeout):
		return FailTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// A dial aborted by run cancellation: the connection never
		// completed, which on the wire is indistinguishable from a
		// timeout. (The record is discarded with the canceled scan.)
		return FailTimeout
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return FailTimeout
		}
		return FailRefused
	}
}

// classifyIOError maps a mid-handshake error to a failure mode.
func classifyIOError(err error, sawBytes bool) FailMode {
	switch {
	case err == nil:
		return FailNone
	case errors.Is(err, vconn.ErrReset):
		return FailReset
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		if sawBytes {
			return FailProto
		}
		return FailClosed
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return FailTimeout
		}
		return FailReset
	}
}

// countingReader tracks whether any bytes were received, distinguishing a
// peer that closed before speaking (FailClosed) from one that spoke a
// different protocol (FailProto).
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// userAgent is the HTTP grab's User-Agent header.
const userAgent = "Mozilla/5.0 zgrab/0.x"

// grabHTTP sends GET / and requires a parseable status line.
func grabHTTP(sc *scratch, conn net.Conn, dst ip.Addr, res *Result) {
	sc.out = httpwire.AppendRequest(sc.out[:0], "GET", "/", dst, userAgent)
	if _, err := conn.Write(sc.out); err != nil {
		res.Fail = classifyIOError(err, false)
		return
	}
	sc.br.Reset(conn)
	if err := httpwire.ReadResponse(&sc.br, 16<<10, &sc.resp); err != nil {
		if errors.Is(err, httpwire.ErrMalformed) || errors.Is(err, httpwire.ErrLineTooLong) {
			res.Fail = FailProto
			return
		}
		res.Fail = classifyIOError(err, sc.br.Buffered() > 0)
		return
	}
	res.Success = true
	if sv, ok := sc.resp.Get("Server"); ok {
		res.Banner = string(sv)
	}
}

// grabTLS sends a Chrome-shaped ClientHello and requires a parseable
// ServerHello (the paper's handshake capture).
func grabTLS(sc *scratch, conn net.Conn, dst ip.Addr, key rng.Key, res *Result) {
	sc.sni = dst.AppendTo(sc.sni[:0])
	ch := tlslite.NewClientHello(key.DeriveN("ch", dst.Word64()), sc.sni)
	var err error
	if sc.out, err = ch.Append(sc.out[:0]); err == nil {
		_, err = conn.Write(sc.out)
	}
	if err != nil {
		res.Fail = classifyIOError(err, false)
		return
	}
	sc.hs.Reset(conn)
	typ, body, err := sc.hs.Next()
	if err != nil {
		if errors.Is(err, tlslite.ErrAlert) || errors.Is(err, tlslite.ErrMalformed) {
			res.Fail = FailProto
			return
		}
		res.Fail = classifyIOError(err, false)
		return
	}
	if typ != tlslite.TypeServerHello {
		res.Fail = FailProto
		return
	}
	var sh tlslite.ServerHello
	if err := tlslite.ParseServerHello(body, &sh); err != nil {
		res.Fail = FailProto
		return
	}
	res.Success = true
	res.Banner = cipherName(sh.CipherSuite)
	// Drain the rest of the server flight (Certificate, HelloDone) so
	// the server sees an orderly close; errors here don't matter.
	for i := 0; i < 4; i++ {
		if typ, _, err := sc.hs.Next(); err != nil || typ == tlslite.TypeServerHelloDone {
			break
		}
	}
}

func cipherName(cs uint16) string {
	switch cs {
	case 0xc02b:
		return "ECDHE-ECDSA-AES128-GCM-SHA256"
	case 0xc02f:
		return "ECDHE-RSA-AES128-GCM-SHA256"
	case 0xcca8:
		return "ECDHE-RSA-CHACHA20-POLY1305"
	default:
		return "suite-" + itoa16(cs)
	}
}

func itoa16(v uint16) string {
	const hex = "0123456789abcdef"
	return string([]byte{hex[v>>12&0xf], hex[v>>8&0xf], hex[v>>4&0xf], hex[v&0xf]})
}

// grabSSH performs the version exchange: write our ID, read the server's.
// Success is a parsed server identification, per the paper's methodology
// ("a partial SSH handshake that terminates after the protocol version
// exchange").
func grabSSH(sc *scratch, conn net.Conn, res *Result) {
	var err error
	if sc.out, err = sshwire.AppendID(sc.out[:0], sshwire.ID{ProtoVersion: "2.0", SoftwareVersion: "zgrab_ssh_0.x"}); err == nil {
		_, err = conn.Write(sc.out)
	}
	if err != nil {
		res.Fail = classifyIOError(err, false)
		return
	}
	sc.cr = countingReader{r: conn}
	sc.br.Reset(&sc.cr)
	id, err := sshwire.ReadID(&sc.br)
	if err != nil {
		if errors.Is(err, sshwire.ErrNotSSH) || errors.Is(err, sshwire.ErrIDTooLong) {
			res.Fail = FailProto
			return
		}
		res.Fail = classifyIOError(err, sc.cr.n > 0)
		return
	}
	res.Success = true
	res.Banner = id.SoftwareVersion
}
