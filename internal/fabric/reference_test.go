package fabric

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/vconn"
	"repro/internal/zgrab"
)

// The reference grab path the fabric's inline one is pinned against: each
// accepted connection is a vconn pipe served by hostsim.Serve from its own
// goroutine, and every verdict comes from Dial's decision chain, evaluated
// one dial at a time.

// Reference dial failures.
var (
	errTimeout = errors.New("fabric: connection timed out")
	errRefused = errors.New("fabric: connection refused")
)

// refDialer is the goroutine-per-connection zgrab.Dialer: every verdict,
// batched or not and for every attempt, comes from Dial's decision chain
// one dial at a time — never from the fabric's predialEval — and
// ConnectFast serves accepted connections over a vconn pipe from a
// dedicated goroutine, tracked so tests can drain them.
type refDialer struct {
	*Fabric
	conns  sync.WaitGroup
	active atomic.Int64
}

func newRefDialer(f *Fabric) *refDialer { return &refDialer{Fabric: f} }

// Predial is Dial's verdict without the connection: a reference-chain
// failure maps to DialTimeout/DialRefused, an accept to its teardown
// verdict.
func (r *refDialer) Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	v, err := r.verdict(dst, port, t, attempt)
	switch {
	case errors.Is(err, errTimeout):
		return zgrab.DialTimeout
	case errors.Is(err, errRefused):
		return zgrab.DialRefused
	}
	return v
}

// PredialBatch evaluates each destination separately, as a per-target
// dial would.
func (r *refDialer) PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []zgrab.DialVerdict) {
	for i, dst := range dsts {
		out[i] = r.Predial(dst, port, ts[i], 0)
	}
}

// ConnectFast opens a vconn pipe for an accepting verdict. Reset and
// half-close tear down synchronously, before the client sees the conn:
// spawned teardown would race the grabber's first write (write-then-close
// → FIN/EOF, close-then-write → EPIPE/RST), making the recorded FailMode
// depend on goroutine scheduling. CloseAfterAccept is a half-close so the
// client's write is accepted either way.
func (r *refDialer) ConnectFast(dst ip.Addr, port uint16, v zgrab.DialVerdict) net.Conn {
	p, _ := proto.FromPort(port)
	client, server := vconn.Pipe(origin.SourceFor(r.org.SourceIPs, dst), dst)
	switch v {
	case zgrab.DialReset:
		server.Abort()
	case zgrab.DialHalfClose:
		server.CloseWrite()
	default:
		r.conns.Add(1)
		r.active.Add(1)
		r.opened.Add(1)
		go func() {
			defer r.active.Add(-1)
			defer r.conns.Done()
			r.cfg.Hosts.Serve(server, dst, p)
		}()
	}
	return client
}

// Dial attempts a full TCP connection: the decision chain predialEval
// replicates, evaluated per dial and ending in a live connection. A
// canceled context fails the dial immediately with the context's error.
func (r *refDialer) Dial(ctx context.Context, dst ip.Addr, port uint16, t time.Duration, attempt int) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := r.verdict(dst, port, t, attempt)
	if err != nil {
		return nil, err
	}
	return r.ConnectFast(dst, port, v), nil
}

// verdict is Dial's decision chain: it fails with errTimeout or
// errRefused, or returns how the accepted connection behaves.
func (r *refDialer) verdict(dst ip.Addr, port uint16, t time.Duration, attempt int) (zgrab.DialVerdict, error) {
	f := r.Fabric
	d := f.fib.Resolve(dst)
	if !d.Routed {
		return 0, errTimeout
	}
	p, isProto := proto.FromPort(port)
	if !isProto {
		return 0, errRefused
	}
	if d.Host && f.cfg.Churn.Offline(dst, f.trial) {
		return 0, errTimeout
	}
	src := origin.SourceFor(f.org.SourceIPs, dst)
	q := f.query(src, dst, d, p, t, attempt)
	defer f.release(q)

	verdict, _ := f.cfg.Engine.Evaluate(q)
	for _, ids := range f.cfg.IDSes {
		if v, ok := ids.Evaluate(q); ok && v == policy.Silent {
			return 0, errTimeout
		}
	}
	switch verdict {
	case policy.Silent:
		return 0, errTimeout
	case policy.RefuseTCP:
		return 0, errRefused
	}
	if f.pathDown(dst, d.AS, t) {
		return 0, errTimeout
	}
	if !d.Host || !d.Services.Has(p) {
		return 0, errRefused
	}
	// Per-packet loss over the whole handshake exchange: on loss the
	// connection times out mid-handshake.
	if f.cfg.Loss.HandshakeFailed(f.org.ID, dst, d.AS.Number, f.trial, attempt) {
		return 0, errTimeout
	}

	switch verdict {
	case policy.ResetAfterAccept:
		return zgrab.DialReset, nil
	case policy.CloseAfterAccept:
		return zgrab.DialHalfClose, nil
	}
	return zgrab.DialConnect, nil
}

// drain blocks until every server goroutine has exited, or ctx is done.
func (r *refDialer) drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		r.conns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return pipeline.Canceled(ctx.Err())
	}
}

// ActiveConns reports how many server goroutines are live.
func (r *refDialer) ActiveConns() int { return int(r.active.Load()) }

// goroutineSlack is how far runtime.NumGoroutine may rise without any
// code under test starting a goroutine: the runtime's finalizer goroutine
// counts as a user goroutine while it runs finalizers.
const goroutineSlack = 2

// grab runs one grab the way the grab stage does: attempt 0's verdict
// first, then GrabFast.
func grab(ctx context.Context, g *zgrab.Grabber, p proto.Protocol, dst ip.Addr, t time.Duration) zgrab.Result {
	return g.GrabFast(ctx, p, dst, t, g.Dialer.Predial(dst, p.Port(), t, 0))
}
