package sshwire

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestIDRoundTrip(t *testing.T) {
	id := ID{ProtoVersion: "2.0", SoftwareVersion: "OpenSSH_7.4", Comments: "Debian-10"}
	line, err := AppendID(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(line); got != "SSH-2.0-OpenSSH_7.4 Debian-10\r\n" {
		t.Errorf("wire = %q", got)
	}
	parsed, err := ReadID(bufio.NewReader(bytes.NewReader(line)))
	if err != nil {
		t.Fatal(err)
	}
	if parsed != id {
		t.Errorf("parsed = %+v, want %+v", parsed, id)
	}
}

func TestReadIDSkipsBanner(t *testing.T) {
	raw := "Welcome to the machine\r\nUnauthorized access prohibited\r\nSSH-2.0-srv\r\n"
	id, err := ReadID(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if id.SoftwareVersion != "srv" {
		t.Errorf("id = %+v", id)
	}
}

func TestReadIDRejectsNonSSH(t *testing.T) {
	var b strings.Builder
	for i := 0; i < MaxBannerLines+2; i++ {
		b.WriteString("spam\r\n")
	}
	if _, err := ReadID(bufio.NewReader(strings.NewReader(b.String()))); err != ErrNotSSH {
		t.Errorf("err = %v, want ErrNotSSH", err)
	}
}

func TestReadIDRejectsOverlongLine(t *testing.T) {
	raw := strings.Repeat("a", MaxIDLen+50) + "\r\n"
	if _, err := ReadID(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Error("overlong line accepted")
	}
}

// TestReadIDLineBound pins the line bound at its edges: MaxIDLen bytes
// before the LF are accepted, one more is ErrIDTooLong — also when the
// peer stops mid-line, where a shorter partial line reports the read
// error instead.
func TestReadIDLineBound(t *testing.T) {
	id := "SSH-2.0-" + strings.Repeat("v", MaxIDLen-len("SSH-2.0-"))
	for _, tc := range []struct {
		raw  string
		want error
	}{
		{id + "\n", nil},
		{id + "x\n", ErrIDTooLong},
		{id[:MaxIDLen-1] + "\r\n", nil},
		{id + "x", ErrIDTooLong},
		{id, io.EOF},
		{"", io.EOF},
	} {
		_, err := ReadID(bufio.NewReader(strings.NewReader(tc.raw)))
		if err != tc.want {
			t.Errorf("line of %d bytes: err = %v, want %v", len(tc.raw), err, tc.want)
		}
	}
	if _, err := AppendID(nil, ID{ProtoVersion: "2.0", SoftwareVersion: id[8 : MaxIDLen-2]}); err != nil {
		t.Errorf("ID line of MaxIDLen bytes rejected: %v", err)
	}
	if b, err := AppendID([]byte("x"), ID{ProtoVersion: "2.0", SoftwareVersion: id[8 : MaxIDLen-1]}); err != ErrIDTooLong || string(b) != "x" {
		t.Errorf("overlong ID line: %q, %v", b, err)
	}
}

func TestParseIDVariants(t *testing.T) {
	id, err := parseID("SSH-1.99-old")
	if err != nil || id.ProtoVersion != "1.99" || id.SoftwareVersion != "old" {
		t.Errorf("parse = %+v, %v", id, err)
	}
	for _, bad := range []string{"SSH-", "SSH-2.0", "SSH--x", "SSH-2.0-"} {
		if _, err := parseID(bad); err == nil {
			t.Errorf("parseID(%q) succeeded", bad)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	payload := []byte{MsgKexInit, 1, 2, 3, 4, 5}
	pkt, err := AppendPacket(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	// RFC 4253: total length multiple of 8 (pre-encryption block).
	if len(pkt)%8 != 0 {
		t.Errorf("packet length %d not a multiple of 8", len(pkt))
	}
	got, err := ReadPacket(nil, bytes.NewReader(pkt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %v, want %v", got, payload)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 30000 {
			payload = payload[:30000]
		}
		pkt, err := AppendPacket(nil, payload)
		if err != nil {
			return false
		}
		got, err := ReadPacket([]byte("prefix"), bytes.NewReader(pkt))
		return err == nil && string(got[:6]) == "prefix" && bytes.Equal(got[6:], payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadPacketRejectsBadLengths(t *testing.T) {
	// Packet length below minimum.
	if _, err := ReadPacket(nil, bytes.NewReader([]byte{0, 0, 0, 2, 0, 0})); err == nil {
		t.Error("undersized packet accepted")
	}
	// Oversized.
	if _, err := ReadPacket(nil, bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err != ErrPacketTooBig {
		t.Error("oversized packet accepted")
	}
	// Padding larger than packet.
	bad := []byte{0, 0, 0, 8, 200, 0, 0, 0, 0, 0, 0, 0}
	if _, err := ReadPacket(nil, bytes.NewReader(bad)); err != ErrMalformed {
		t.Errorf("bad padding err = %v", err)
	}
}

func TestKexInitRoundTrip(t *testing.T) {
	k := DefaultKexInit(rng.NewKey(5).Derive("host"))
	payload := k.Append(nil)
	if payload[0] != MsgKexInit {
		t.Fatalf("message type = %d", payload[0])
	}
	parsed, err := ParseKexInit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Cookie != k.Cookie {
		t.Error("cookie mismatch")
	}
	if strings.Join(parsed.KexAlgorithms, ",") != strings.Join(k.KexAlgorithms, ",") {
		t.Errorf("kex algos = %v", parsed.KexAlgorithms)
	}
	if strings.Join(parsed.CiphersServerClient, ",") != strings.Join(k.CiphersServerClient, ",") {
		t.Errorf("ciphers = %v", parsed.CiphersServerClient)
	}
	if parsed.FirstKexPacketFollows != k.FirstKexPacketFollows {
		t.Error("first_kex_packet_follows mismatch")
	}
}

func TestKexInitOverWire(t *testing.T) {
	k := DefaultKexInit(rng.NewKey(6).Derive("host"))
	pkt, err := AppendPacket(nil, k.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadPacket(nil, bytes.NewReader(pkt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseKexInit(payload); err != nil {
		t.Fatal(err)
	}
}

func TestParseKexInitRejectsGarbage(t *testing.T) {
	if _, err := ParseKexInit(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := ParseKexInit([]byte{99, 0, 0}); err == nil {
		t.Error("wrong type accepted")
	}
	// Truncated name-list.
	b := []byte{MsgKexInit}
	b = append(b, make([]byte, 16)...)
	b = append(b, 0, 0, 0, 200) // claims 200 bytes, has none
	if _, err := ParseKexInit(b); err == nil {
		t.Error("truncated name-list accepted")
	}
}

func TestDefaultKexInitDeterministic(t *testing.T) {
	a := DefaultKexInit(rng.NewKey(7))
	b := DefaultKexInit(rng.NewKey(7))
	if a.Cookie != b.Cookie {
		t.Error("same key produced different cookies")
	}
	c := DefaultKexInit(rng.NewKey(8))
	if a.Cookie == c.Cookie {
		t.Error("different keys produced same cookie")
	}
}

// TestKexInitCookiePatch: patching a cookie into an encoded KEXINIT at
// CookieOffset yields exactly the KEXINIT encoded with that cookie.
func TestKexInitCookiePatch(t *testing.T) {
	template := DefaultKexInit(rng.NewKey(9)).Append(nil)
	key := rng.NewKey(10)
	PutCookie(template[CookieOffset:], key)
	if want := DefaultKexInit(key).Append(nil); !bytes.Equal(template, want) {
		t.Errorf("patched KEXINIT differs from a freshly encoded one")
	}
}
