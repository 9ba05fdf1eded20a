package zgrab

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/vconn"
)

// pipeDialer serves every dial with a hostsim instance over a vconn pipe,
// with optional misbehaviour injected per dial.
type pipeDialer struct {
	server *hostsim.Server
	proto  proto.Protocol
	// behaviour hooks
	refuse     bool
	silent     bool
	abortAfter bool // accept then immediately RST (Alibaba)
	closeAfter bool // accept then immediately FIN (MaxStartups)
	garbage    bool // speak a non-protocol banner
	// refuseFirstN refuses the first N attempts, then serves (retry test).
	refuseFirstN int
	dials        int
}

func (d *pipeDialer) Dial(ctx context.Context, dst ip.Addr, port uint16, t time.Duration, attempt int) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.dials++
	switch {
	case d.refuse:
		return nil, ErrRefused
	case d.silent:
		return nil, ErrTimeout
	}
	client, server := vconn.PipeLabeled("scanner", dst.String())
	switch {
	case d.abortAfter:
		go server.Abort()
	case d.closeAfter:
		go server.Close()
	case d.garbage:
		go func() {
			server.Write([]byte("220 FTP ready\r\n"))
			server.Close()
		}()
	case d.refuseFirstN > 0 && attempt < d.refuseFirstN:
		go server.Close()
	default:
		go d.server.Serve(server, dst, d.proto)
	}
	return client, nil
}

func newGrabber(d Dialer) *Grabber {
	return &Grabber{Dialer: d, Key: rng.NewKey(9).Derive("grab"), IOTimeout: 5 * time.Second}
}

func TestGrabHTTPSuccess(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(1)), proto: proto.HTTP}
	res := newGrabber(d).Grab(context.Background(), proto.HTTP, ip.MustParseAddr("10.0.0.1"), 0)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if res.Banner == "" {
		t.Error("no Server banner captured")
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d", res.Attempts)
	}
}

func TestGrabHTTPSSuccess(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(2)), proto: proto.HTTPS}
	res := newGrabber(d).Grab(context.Background(), proto.HTTPS, ip.MustParseAddr("10.0.0.2"), 0)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if !strings.Contains(res.Banner, "AES") && !strings.Contains(res.Banner, "CHACHA") {
		t.Errorf("banner = %q, want a cipher suite", res.Banner)
	}
}

func TestGrabSSHSuccess(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(3)), proto: proto.SSH}
	res := newGrabber(d).Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.0.0.3"), 0)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if !strings.Contains(res.Banner, "SSH") && !strings.Contains(res.Banner, "dropbear") && !strings.Contains(res.Banner, "Open") {
		t.Errorf("banner = %q", res.Banner)
	}
}

func TestBannerVariesByHost(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(4)), proto: proto.SSH}
	g := newGrabber(d)
	banners := map[string]bool{}
	for i := 0; i < 30; i++ {
		res := g.Grab(context.Background(), proto.SSH, ip.AddrFrom4(0x0a000000+uint32(i)), 0)
		if res.Success {
			banners[res.Banner] = true
		}
	}
	if len(banners) < 2 {
		t.Errorf("host personalities too uniform: %v", banners)
	}
}

func TestBannerStablePerHost(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(5)), proto: proto.HTTP}
	g := newGrabber(d)
	a := g.Grab(context.Background(), proto.HTTP, ip.MustParseAddr("10.0.0.9"), 0)
	b := g.Grab(context.Background(), proto.HTTP, ip.MustParseAddr("10.0.0.9"), time.Hour)
	if a.Banner != b.Banner {
		t.Errorf("same host changed banner: %q vs %q", a.Banner, b.Banner)
	}
}

func TestGrabFailureModes(t *testing.T) {
	base := hostsim.NewServer(rng.NewKey(6))
	cases := []struct {
		name string
		d    *pipeDialer
		want FailMode
	}{
		{"refused", &pipeDialer{server: base, proto: proto.SSH, refuse: true}, FailRefused},
		{"timeout", &pipeDialer{server: base, proto: proto.SSH, silent: true}, FailTimeout},
		{"reset", &pipeDialer{server: base, proto: proto.SSH, abortAfter: true}, FailReset},
		{"closed", &pipeDialer{server: base, proto: proto.SSH, closeAfter: true}, FailClosed},
		{"garbage", &pipeDialer{server: base, proto: proto.SSH, garbage: true}, FailProto},
	}
	for _, c := range cases {
		res := newGrabber(c.d).Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.1.0.1"), 0)
		if res.Success || res.Fail != c.want {
			t.Errorf("%s: result %+v, want fail=%v", c.name, res, c.want)
		}
	}
}

func TestRetriesRecoverFlakyHost(t *testing.T) {
	// Host closes the first 3 connection attempts then serves —
	// the §6 MaxStartups pattern recovered by retries.
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(7)), proto: proto.SSH, refuseFirstN: 3}
	g := newGrabber(d)
	g.Retries = 8
	res := g.Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.2.0.1"), 0)
	if !res.Success {
		t.Fatalf("retries did not recover: %+v", res)
	}
	if res.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", res.Attempts)
	}

	// Without retries the same host fails closed.
	d2 := &pipeDialer{server: hostsim.NewServer(rng.NewKey(7)), proto: proto.SSH, refuseFirstN: 3}
	g2 := newGrabber(d2)
	res2 := g2.Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.2.0.1"), 0)
	if res2.Success || res2.Fail != FailClosed {
		t.Errorf("no-retry grab = %+v, want FailClosed", res2)
	}
}

func TestGrabCanceledContextStopsRetries(t *testing.T) {
	// Cancellation must stop the retry loop instead of burning the full
	// budget: a flaky host that would be recovered by 8 retries is
	// abandoned after the first attempt when the context is canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(7)), proto: proto.SSH, refuseFirstN: 3}
	g := newGrabber(d)
	g.Retries = 8
	res := g.Grab(ctx, proto.SSH, ip.MustParseAddr("10.2.0.1"), 0)
	if res.Success {
		t.Fatalf("grab succeeded under canceled context: %+v", res)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (retry loop must stop on cancellation)", res.Attempts)
	}
	if d.dials != 0 {
		t.Errorf("%d dials reached the network after cancellation", d.dials)
	}
}

func TestGrabHTTPOverRealTCP(t *testing.T) {
	// The grabbers must also work over the real network stack: serve one
	// hostsim HTTP connection on a loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := hostsim.NewServer(rng.NewKey(8))
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.Serve(conn, ip.MustParseAddr("127.0.0.1"), proto.HTTP)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var res Result
	res.Proto = proto.HTTP
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	grabHTTP(new(scratch), conn, ip.MustParseAddr("127.0.0.1"), &res)
	if !res.Success {
		t.Fatalf("real-TCP grab failed: %+v", res)
	}
}

func TestFailModeStrings(t *testing.T) {
	for f, want := range map[FailMode]string{
		FailNone: "none", FailTimeout: "timeout", FailRefused: "refused",
		FailReset: "reset", FailClosed: "closed", FailProto: "proto",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
}
