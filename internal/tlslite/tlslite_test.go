package tlslite

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

func TestRecordRoundTrip(t *testing.T) {
	payload := []byte{TypeServerHelloDone, 0, 0, 0}
	rec, err := AppendRecord(nil, RecordHandshake, payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{RecordHandshake, 3, 3, 0, 4}; !bytes.Equal(rec[:5], want) {
		t.Errorf("record header = %v, want %v", rec[:5], want)
	}
	typ, body, err := NewHandshakeReader(bytes.NewReader(rec)).Next()
	if err != nil || typ != TypeServerHelloDone || len(body) != 0 {
		t.Errorf("record = %d %v %v", typ, body, err)
	}
}

func TestRecordRejectsOversize(t *testing.T) {
	if _, err := AppendRecord(nil, RecordHandshake, make([]byte, MaxRecordLen+1)); err != ErrRecordTooBig {
		t.Errorf("append err = %v", err)
	}
	// An oversized handshake message is removed again, leaving b intact.
	ch := NewClientHello(rng.NewKey(1), make([]byte, MaxRecordLen))
	b, err := ch.Append([]byte("keep"))
	if err != ErrRecordTooBig || string(b) != "keep" {
		t.Errorf("oversized ClientHello: %q, %v", b, err)
	}
	var hdr [5]byte
	hdr[0], hdr[3], hdr[4] = RecordHandshake, 0xff, 0xff
	if _, _, err := NewHandshakeReader(bytes.NewReader(hdr[:])).Next(); err != ErrRecordTooBig {
		t.Errorf("read err = %v", err)
	}
}

func TestClientHelloRoundTrip(t *testing.T) {
	ch := NewClientHello(rng.NewKey(1).Derive("grab"), []byte("198.51.100.9"))
	var parsed ClientHello
	if err := ParseClientHello(helloBody(t, &ch), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Version != VersionTLS12 {
		t.Errorf("version = %#x", parsed.Version)
	}
	if parsed.Random != ch.Random {
		t.Error("random mismatch")
	}
	if len(parsed.CipherSuites) != len(ChromeTLS12Suites) {
		t.Fatalf("suites = %d", len(parsed.CipherSuites))
	}
	for i, cs := range parsed.CipherSuites {
		if cs != ChromeTLS12Suites[i] {
			t.Errorf("suite %d = %#x, want %#x", i, cs, ChromeTLS12Suites[i])
		}
	}
	if string(parsed.ServerName) != "198.51.100.9" {
		t.Errorf("SNI = %q", parsed.ServerName)
	}
}

// helloBody encodes ch and returns its handshake body.
func helloBody(t *testing.T, ch *ClientHello) []byte {
	t.Helper()
	rec, err := ch.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	typ, body, err := NewHandshakeReader(bytes.NewReader(rec)).Next()
	if err != nil || typ != TypeClientHello {
		t.Fatalf("reading ClientHello back: %d, %v", typ, err)
	}
	return body
}

func TestClientHelloWithoutSNI(t *testing.T) {
	ch := NewClientHello(rng.NewKey(2), nil)
	var parsed ClientHello
	if err := ParseClientHello(helloBody(t, &ch), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.ServerName) != 0 {
		t.Errorf("SNI = %q, want empty", parsed.ServerName)
	}
}

// TestParseClientHelloOwnsSuites: decoding into a ClientHello built by
// NewClientHello must not write through its CipherSuites into the shared
// ChromeTLS12Suites table.
func TestParseClientHelloOwnsSuites(t *testing.T) {
	want := append([]uint16(nil), ChromeTLS12Suites...)
	other := NewClientHello(rng.NewKey(3), nil)
	other.CipherSuites = []uint16{0x1301, 0x1302}
	body := helloBody(t, &other)
	ch := NewClientHello(rng.NewKey(4), nil)
	if err := ParseClientHello(body, &ch); err != nil {
		t.Fatal(err)
	}
	if len(ch.CipherSuites) != 2 || ch.CipherSuites[0] != 0x1301 {
		t.Errorf("suites = %#x", ch.CipherSuites)
	}
	for i := range want {
		if ChromeTLS12Suites[i] != want[i] {
			t.Fatalf("ChromeTLS12Suites[%d] overwritten: %#x", i, ChromeTLS12Suites[i])
		}
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := &ServerHello{Version: VersionTLS12, CipherSuite: 0xc02f, SessionID: []byte{9, 9}}
	sh.Random[0] = 0xaa
	rec, err := sh.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	typ, body, err := NewHandshakeReader(bytes.NewReader(rec)).Next()
	if err != nil || typ != TypeServerHello {
		t.Fatalf("read back: %d, %v", typ, err)
	}
	var parsed ServerHello
	if err := ParseServerHello(body, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.CipherSuite != 0xc02f || parsed.Random[0] != 0xaa || len(parsed.SessionID) != 2 {
		t.Errorf("parsed = %+v", parsed)
	}
}

func TestCertificateRoundTrip(t *testing.T) {
	rec, cert, err := AppendCertificate(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	copy(cert, []byte{1, 2, 3})
	typ, body, err := NewHandshakeReader(bytes.NewReader(rec)).Next()
	if err != nil || typ != TypeCertificate {
		t.Fatalf("read back: %d, %v", typ, err)
	}
	var c Certificate
	if err := ParseCertificate(body, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Chain) != 1 || !bytes.Equal(c.Chain[0], []byte{1, 2, 3}) {
		t.Errorf("chain = %v", c.Chain)
	}
	// A two-entry chain (length 11: {1,2,3} and {4,5}) parses into the
	// same Certificate, reusing its Chain storage.
	if err := ParseCertificate([]byte{0, 0, 11, 0, 0, 3, 1, 2, 3, 0, 0, 2, 4, 5}, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Chain) != 2 || !bytes.Equal(c.Chain[0], []byte{1, 2, 3}) || !bytes.Equal(c.Chain[1], []byte{4, 5}) {
		t.Errorf("chain = %v", c.Chain)
	}
}

func TestFullHandshakeFlightOverWire(t *testing.T) {
	// Client writes ClientHello; server answers ServerHello +
	// Certificate + ServerHelloDone; client parses all three.
	ch := NewClientHello(rng.NewKey(3), []byte("host"))
	var parsedCH ClientHello
	if err := ParseClientHello(helloBody(t, &ch), &parsedCH); err != nil {
		t.Fatal(err)
	}

	sh := &ServerHello{Version: VersionTLS12, CipherSuite: ChromeTLS12Suites[1]}
	flight, err := sh.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	flight, cert, err := AppendCertificate(flight, 800)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cert {
		cert[i] = 0x30
	}
	flight = AppendServerHelloDone(flight)

	cr := NewHandshakeReader(bytes.NewReader(flight))
	wantTypes := []uint8{TypeServerHello, TypeCertificate, TypeServerHelloDone}
	for _, want := range wantTypes {
		typ, body, err := cr.Next()
		if err != nil {
			t.Fatalf("reading type %d: %v", want, err)
		}
		if typ != want {
			t.Fatalf("type = %d, want %d", typ, want)
		}
		switch typ {
		case TypeServerHello:
			var parsed ServerHello
			if err := ParseServerHello(body, &parsed); err != nil {
				t.Fatal(err)
			}
		case TypeCertificate:
			var c Certificate
			if err := ParseCertificate(body, &c); err != nil {
				t.Fatal(err)
			}
			if len(c.Chain) != 1 || !bytes.Equal(c.Chain[0], bytes.Repeat([]byte{0x30}, 800)) {
				t.Errorf("cert chain = %d certs", len(c.Chain))
			}
		}
	}
}

func TestHandshakeReaderAlert(t *testing.T) {
	hr := NewHandshakeReader(bytes.NewReader(AppendAlert(nil, 2, 40))) // fatal handshake_failure
	if _, _, err := hr.Next(); err != ErrAlert {
		t.Errorf("err = %v, want ErrAlert", err)
	}
}

func TestHandshakeSpanningRecords(t *testing.T) {
	// A handshake message split across two records must reassemble.
	msg := make([]byte, 4+100)
	msg[0] = TypeCertificate
	msg[3] = 100
	buf, _ := AppendRecord(nil, RecordHandshake, msg[:50])
	buf, _ = AppendRecord(buf, RecordHandshake, msg[50:])
	hr := NewHandshakeReader(bytes.NewReader(buf))
	typ, body, err := hr.Next()
	if err != nil || typ != TypeCertificate || len(body) != 100 {
		t.Errorf("reassembly: %d, %d bytes, %v", typ, len(body), err)
	}
}

// TestHandshakeReaderReuse: one reader Reset across connections must see
// only each connection's messages, including two messages packed in one
// record and a message straddling records, and allocate nothing once its
// buffer has grown.
func TestHandshakeReaderReuse(t *testing.T) {
	two, _ := AppendRecord(nil, RecordHandshake, []byte{TypeServerHello, 0, 0, 1, 7, TypeServerHelloDone, 0, 0, 0})
	split, _ := AppendRecord(nil, RecordHandshake, []byte{TypeCertificate, 0, 0, 3, 1})
	split, _ = AppendRecord(split, RecordHandshake, []byte{2, 3})
	split = AppendServerHelloDone(split)
	var hr HandshakeReader
	var rd bytes.Reader
	read := func(conn []byte) (types []uint8, bodies [][]byte) {
		rd.Reset(conn)
		hr.Reset(&rd)
		for {
			typ, body, err := hr.Next()
			if err != nil {
				return types, bodies
			}
			types = append(types, typ)
			bodies = append(bodies, append([]byte(nil), body...))
		}
	}
	for i := 0; i < 3; i++ {
		if types, bodies := read(two); len(types) != 2 || types[0] != TypeServerHello || !bytes.Equal(bodies[0], []byte{7}) {
			t.Fatalf("packed record: %v %v", types, bodies)
		}
		if types, bodies := read(split); len(types) != 2 || types[0] != TypeCertificate || !bytes.Equal(bodies[0], []byte{1, 2, 3}) {
			t.Fatalf("straddling message: %v %v", types, bodies)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(split)
		hr.Reset(&rd)
		for {
			if _, _, err := hr.Next(); err != nil {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm HandshakeReader allocates %.1f per connection, want 0", allocs)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	if err := ParseClientHello([]byte{3, 3, 0}, new(ClientHello)); err == nil {
		t.Error("truncated ClientHello accepted")
	}
	if err := ParseServerHello([]byte{3}, new(ServerHello)); err == nil {
		t.Error("truncated ServerHello accepted")
	}
	if err := ParseCertificate([]byte{0, 0, 9, 1}, new(Certificate)); err == nil {
		t.Error("truncated Certificate accepted")
	}
}
