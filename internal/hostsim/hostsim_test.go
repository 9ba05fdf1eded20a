package hostsim

import (
	"bufio"
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/httpwire"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sshwire"
	"repro/internal/tlslite"
	"repro/internal/vconn"
)

// serve runs the host end of a pipe and returns the client side plus a
// waiter for server completion.
func serve(s *Server, host ip.Addr, p proto.Protocol) (client *vconn.Conn, wait func()) {
	client, server := vconn.PipeLabeled("client", host.String())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Serve(server, host, p)
	}()
	return client, wg.Wait
}

// writeFlight encodes one client flight with an append-style encoder and
// sends it with one Write.
func writeFlight(t *testing.T, conn io.Writer, appendTo func([]byte) ([]byte, error)) {
	t.Helper()
	flight, err := appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(flight); err != nil {
		t.Fatal(err)
	}
}

func TestServeHTTPAnswersGet(t *testing.T) {
	s := NewServer(rng.NewKey(1))
	client, wait := serve(s, ip.MustParseAddr("10.0.0.1"), proto.HTTP)
	defer client.Close()
	if _, err := client.Write(httpwire.AppendRequest(nil, "GET", "/", ip.MustParseAddr("10.0.0.1"), "test")); err != nil {
		t.Fatal(err)
	}
	var resp httpwire.Response
	if err := httpwire.ReadResponse(bufio.NewReader(client), 0, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if sv, ok := resp.Get("Server"); !ok || len(sv) == 0 {
		t.Error("no Server header")
	}
	if len(resp.Body) == 0 {
		t.Error("empty body")
	}
	wait()
}

func TestServeHTTPIgnoresGarbage(t *testing.T) {
	s := NewServer(rng.NewKey(2))
	client, wait := serve(s, ip.MustParseAddr("10.0.0.2"), proto.HTTP)
	client.Write([]byte("NONSENSE\r\n\r\n"))
	client.Close()
	wait() // must terminate without hanging or panicking
}

func TestServeTLSFlight(t *testing.T) {
	s := NewServer(rng.NewKey(3))
	host := ip.MustParseAddr("10.0.0.3")
	client, wait := serve(s, host, proto.HTTPS)
	defer client.Close()
	ch := tlslite.NewClientHello(rng.NewKey(4), host.AppendTo(nil))
	writeFlight(t, client, ch.Append)
	hr := tlslite.NewHandshakeReader(client)
	typ, body, err := hr.Next()
	if err != nil || typ != tlslite.TypeServerHello {
		t.Fatalf("first message: %d, %v", typ, err)
	}
	var sh tlslite.ServerHello
	if err := tlslite.ParseServerHello(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.CipherSuite != ch.CipherSuites[0] {
		t.Errorf("server picked %#x, want client's first preference %#x", sh.CipherSuite, ch.CipherSuites[0])
	}
	typ, body, err = hr.Next()
	if err != nil || typ != tlslite.TypeCertificate {
		t.Fatalf("second message: %d, %v", typ, err)
	}
	var cert tlslite.Certificate
	if err := tlslite.ParseCertificate(body, &cert); err != nil {
		t.Fatal(err)
	}
	if len(cert.Chain) != 1 || cert.Chain[0][0] != 0x30 {
		t.Error("certificate blob not DER-framed")
	}
	if typ, _, err = hr.Next(); err != nil || typ != tlslite.TypeServerHelloDone {
		t.Fatalf("third message: %d, %v", typ, err)
	}
	wait()
}

func TestServeTLSAlertsOnEmptySuites(t *testing.T) {
	s := NewServer(rng.NewKey(5))
	host := ip.MustParseAddr("10.0.0.4")
	client, wait := serve(s, host, proto.HTTPS)
	defer client.Close()
	ch := tlslite.NewClientHello(rng.NewKey(6), nil)
	ch.CipherSuites = nil
	writeFlight(t, client, ch.Append)
	hr := tlslite.NewHandshakeReader(client)
	if _, _, err := hr.Next(); err != tlslite.ErrAlert {
		t.Errorf("err = %v, want ErrAlert", err)
	}
	wait()
}

func TestServeSSHVersionExchange(t *testing.T) {
	s := NewServer(rng.NewKey(7))
	host := ip.MustParseAddr("10.0.0.5")
	client, wait := serve(s, host, proto.SSH)
	defer client.Close()
	br := bufio.NewReader(client)
	id, err := sshwire.ReadID(br)
	if err != nil {
		t.Fatal(err)
	}
	if id.ProtoVersion != "2.0" || id.SoftwareVersion == "" {
		t.Errorf("server id = %+v", id)
	}
	// Server's KEXINIT follows.
	payload, err := sshwire.ReadPacket(nil, br)
	if err != nil {
		t.Fatal(err)
	}
	kex, err := sshwire.ParseKexInit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(kex.KexAlgorithms) == 0 {
		t.Error("empty kex algorithm list")
	}
	// Complete our side so the server returns cleanly.
	flight, _ := sshwire.AppendID(nil, sshwire.ID{ProtoVersion: "2.0", SoftwareVersion: "test"})
	flight, _ = sshwire.AppendPacket(flight, sshwire.DefaultKexInit(rng.NewKey(8)).Append(nil))
	client.Write(flight)
	wait()
}

func TestPersonalitiesStableAndDiverse(t *testing.T) {
	s := NewServer(rng.NewKey(9))
	banner := func(host ip.Addr) string {
		client, wait := serve(s, host, proto.SSH)
		defer client.Close()
		id, err := sshwire.ReadID(bufio.NewReader(client))
		if err != nil {
			t.Fatal(err)
		}
		client.Close()
		wait()
		return id.SoftwareVersion
	}
	a1 := banner(ip.MustParseAddr("10.1.0.1"))
	a2 := banner(ip.MustParseAddr("10.1.0.1"))
	if a1 != a2 {
		t.Error("same host changed SSH version across connections")
	}
	versions := map[string]bool{}
	for i := 0; i < 20; i++ {
		versions[banner(ip.AddrFrom4(0x0a020000+uint32(i)))] = true
	}
	if len(versions) < 2 {
		t.Error("SSH versions not diverse across hosts")
	}
}

func TestCertBlobStablePerHost(t *testing.T) {
	s := NewServer(rng.NewKey(10))
	blob := func(host ip.Addr) []byte {
		msg, err := s.appendCert(nil, host)
		if err != nil {
			t.Fatal(err)
		}
		typ, body, err := tlslite.NewHandshakeReader(bytes.NewReader(msg)).Next()
		var cert tlslite.Certificate
		if err != nil || typ != tlslite.TypeCertificate || tlslite.ParseCertificate(body, &cert) != nil || len(cert.Chain) != 1 {
			t.Fatalf("certificate message: type %d, %v", typ, err)
		}
		return cert.Chain[0]
	}
	a := blob(ip.MustParseAddr("10.0.0.9"))
	b := blob(ip.MustParseAddr("10.0.0.9"))
	if string(a) != string(b) {
		t.Error("certificate changed between handshakes")
	}
	c := blob(ip.MustParseAddr("10.0.0.10"))
	if string(a) == string(c) {
		t.Error("different hosts share a certificate")
	}
	if len(a) < 500 {
		t.Errorf("cert suspiciously small: %d bytes", len(a))
	}
}

// TestServeInlineMatchesGoroutineServe is the inline-serve byte proof: for
// each protocol, the response flight ServeInline appends for a complete
// client opening flight must be byte-identical to what a goroutine Serve
// streams through a vconn pipe for the same flight. (The grab fast path
// rides on this equivalence; the grabbers' parsers are insensitive to
// chunking, so identical bytes mean identical zgrab.Results.)
func TestServeInlineMatchesGoroutineServe(t *testing.T) {
	s := NewServer(rng.NewKey(77))
	for _, host := range []ip.Addr{
		ip.MustParseAddr("10.1.2.3"),
		ip.MustParseAddr("172.16.9.200"),
		ip.MustParseAddr("192.0.2.41"),
	} {
		httpFlight := httpwire.AppendRequest(nil, "GET", "/", host, "Mozilla/5.0 zgrab/0.x")
		ch := tlslite.NewClientHello(rng.NewKey(5).DeriveN("ch", host.Word64()), host.AppendTo(nil))
		tlsFlight, err := ch.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		sshFlight, err := sshwire.AppendID(nil, sshwire.ID{ProtoVersion: "2.0", SoftwareVersion: "zgrab_ssh_0.x"})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			p      proto.Protocol
			flight []byte
		}{
			{proto.HTTP, httpFlight},
			{proto.HTTPS, tlsFlight},
			{proto.SSH, sshFlight},
		} {
			t.Run(host.String()+"/"+tc.p.String(), func(t *testing.T) {
				client, wait := serve(s, host, tc.p)
				if _, err := client.Write(tc.flight); err != nil {
					t.Fatal(err)
				}
				client.CloseWrite()
				ref, err := io.ReadAll(client)
				if err != nil {
					t.Fatalf("reading reference flight: %v", err)
				}
				wait()
				client.Close()

				var out bytes.Buffer
				s.ServeInline(&out, tc.flight, host, tc.p)
				if !bytes.Equal(out.Bytes(), ref) {
					t.Errorf("inline flight (%d bytes) differs from goroutine flight (%d bytes)",
						out.Len(), len(ref))
				}
				if len(ref) == 0 {
					t.Error("reference server sent nothing")
				}
			})
		}
	}
}

// TestServeInlineGarbage: a non-protocol flight must leave the inline
// server silent for HTTP/TLS parse failures without hanging or panicking,
// like the goroutine server.
func TestServeInlineGarbage(t *testing.T) {
	s := NewServer(rng.NewKey(78))
	host := ip.MustParseAddr("10.9.9.9")
	for _, p := range []proto.Protocol{proto.HTTP, proto.HTTPS, proto.SSH} {
		client, wait := serve(s, host, p)
		client.Write([]byte("NONSENSE\r\n\r\n"))
		client.CloseWrite()
		ref, _ := io.ReadAll(client)
		wait()
		client.Close()
		var out bytes.Buffer
		s.ServeInline(&out, []byte("NONSENSE\r\n\r\n"), host, p)
		if !bytes.Equal(out.Bytes(), ref) {
			t.Errorf("%v: inline garbage response (%d bytes) differs from goroutine (%d bytes)",
				p, out.Len(), len(ref))
		}
	}
}
