package tlslite

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/rng"
)

// FuzzHandshakeReader feeds an arbitrary record stream through one reused
// reader. It must never panic or return a message over MaxHandshakeLen,
// and every ClientHello, ServerHello and one-entry Certificate it yields
// that parses must survive re-encoding: Append → read → parse gives the
// same fields.
func FuzzHandshakeReader(f *testing.F) {
	ch := NewClientHello(rng.NewKey(3), []byte("198.51.100.9"))
	hello, _ := ch.Append(nil)
	sh := ServerHello{Version: VersionTLS12, CipherSuite: 0xc02f, SessionID: []byte{9, 9}}
	flight, _ := sh.Append(nil)
	flight, cert, _ := AppendCertificate(flight, 40)
	cert[0] = 0x30
	flight = AppendServerHelloDone(flight)
	msg := make([]byte, 4+100)
	msg[0], msg[3] = TypeCertificate, 100
	split, _ := AppendRecord(nil, RecordHandshake, msg[:50])
	split, _ = AppendRecord(split, RecordHandshake, msg[50:])
	for _, seed := range [][]byte{
		hello, flight, split,
		AppendAlert(nil, 2, 40),
		{RecordHandshake, 3, 3, 0xff, 0xff},
		{23, 3, 3, 0, 1, 0},
		{RecordHandshake, 3, 3, 0, 4, TypeClientHello, 0xff, 0xff, 0xff},
		{},
	} {
		f.Add(seed)
	}
	var hr HandshakeReader
	f.Fuzz(func(t *testing.T, raw []byte) {
		hr.Reset(bytes.NewReader(raw))
		for i := 0; ; i++ {
			typ, body, err := hr.Next()
			if err != nil {
				return
			}
			if len(body) > MaxHandshakeLen {
				t.Fatalf("message of %d bytes, bound %d", len(body), MaxHandshakeLen)
			}
			if i > len(raw)/4 {
				t.Fatalf("%d messages from %d bytes", i, len(raw))
			}
			roundTrip(t, typ, body)
		}
	})
}

// reread reads back the one handshake message in rec.
func reread(t *testing.T, rec []byte, want uint8) []byte {
	t.Helper()
	typ, body, err := NewHandshakeReader(bytes.NewReader(rec)).Next()
	if err != nil || typ != want {
		t.Fatalf("re-encoded message read back as %d, %v", typ, err)
	}
	return body
}

func roundTrip(t *testing.T, typ uint8, body []byte) {
	switch typ {
	case TypeClientHello:
		var ch ClientHello
		if ParseClientHello(body, &ch) != nil {
			return
		}
		rec, err := ch.Append(nil)
		if err != nil {
			return // fit in a message, not in one record
		}
		var again ClientHello
		if err := ParseClientHello(reread(t, rec, TypeClientHello), &again); err != nil {
			t.Fatalf("re-encoded ClientHello rejected: %v", err)
		}
		if again.Version != ch.Version || again.Random != ch.Random || !bytes.Equal(again.SessionID, ch.SessionID) ||
			!slices.Equal(again.CipherSuites, ch.CipherSuites) || !bytes.Equal(again.ServerName, ch.ServerName) {
			t.Fatalf("ClientHello round trip: %+v, was %+v", again, ch)
		}
	case TypeServerHello:
		var sh ServerHello
		if ParseServerHello(body, &sh) != nil {
			return
		}
		rec, err := sh.Append(nil)
		if err != nil {
			t.Fatalf("ServerHello re-encode: %v", err)
		}
		var again ServerHello
		if err := ParseServerHello(reread(t, rec, TypeServerHello), &again); err != nil {
			t.Fatalf("re-encoded ServerHello rejected: %v", err)
		}
		if again.Version != sh.Version || again.Random != sh.Random || !bytes.Equal(again.SessionID, sh.SessionID) ||
			again.CipherSuite != sh.CipherSuite || again.Compression != sh.Compression {
			t.Fatalf("ServerHello round trip: %+v, was %+v", again, sh)
		}
	case TypeCertificate:
		var c Certificate
		if ParseCertificate(body, &c) != nil || len(c.Chain) != 1 {
			return
		}
		rec, cert, err := AppendCertificate(nil, len(c.Chain[0]))
		if err != nil {
			return
		}
		copy(cert, c.Chain[0])
		var again Certificate
		if err := ParseCertificate(reread(t, rec, TypeCertificate), &again); err != nil {
			t.Fatalf("re-encoded Certificate rejected: %v", err)
		}
		if len(again.Chain) != 1 || !bytes.Equal(again.Chain[0], c.Chain[0]) {
			t.Fatalf("Certificate round trip: %d entries", len(again.Chain))
		}
	}
}
