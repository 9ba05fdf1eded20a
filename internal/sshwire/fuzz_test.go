package sshwire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/rng"
)

// FuzzReadID: any byte stream must decode without panicking and within
// MaxIDLen, and an accepted ID that AppendID can write must read back
// unchanged.
func FuzzReadID(f *testing.F) {
	for _, seed := range []string{
		"SSH-2.0-OpenSSH_7.4 Debian-10\r\n",
		"Welcome to the machine\r\nUnauthorized access prohibited\r\nSSH-2.0-srv\r\n",
		"SSH-1.99-old\n",
		"SSH-\r\n", "SSH-2.0\r\n", "SSH--x\r\n", "SSH-2.0-\r\n",
		strings.Repeat("spam\r\n", MaxBannerLines+2),
		strings.Repeat("a", MaxIDLen+50) + "\r\n",
		"SSH-2.0-" + strings.Repeat("v", MaxIDLen),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		id, err := ReadID(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			return
		}
		n := len("SSH-") + len(id.ProtoVersion) + len("-") + len(id.SoftwareVersion)
		if id.Comments != "" {
			n += len(" ") + len(id.Comments)
		}
		if n > MaxIDLen {
			t.Fatalf("ID of %d bytes accepted, bound %d", n, MaxIDLen)
		}
		line, err := AppendID(nil, id)
		if err != nil {
			return // readable up to MaxIDLen, writable up to MaxIDLen with CRLF
		}
		again, err := ReadID(bufio.NewReader(bytes.NewReader(line)))
		if err != nil || again != id {
			t.Fatalf("round trip: %+v, %v; was %+v", again, err, id)
		}
	})
}

// FuzzReadPacket: any byte stream must decode without panicking, with a
// payload under MaxPacketLen appended after what b held, and an accepted
// payload must survive AppendPacket → ReadPacket.
func FuzzReadPacket(f *testing.F) {
	kex, _ := AppendPacket(nil, DefaultKexInit(rng.NewKey(5)).Append(nil))
	small, _ := AppendPacket(nil, []byte{MsgKexInit, 1, 2, 3, 4, 5})
	for _, seed := range [][]byte{
		kex, small,
		{0, 0, 0, 2, 0, 0},
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 8, 200, 0, 0, 0, 0, 0, 0, 0},
		{},
	} {
		f.Add(seed)
	}
	prefix := []byte("kept")
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := ReadPacket(append([]byte(nil), prefix...), bytes.NewReader(raw))
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("ReadPacket clobbered b: %q", got)
		}
		payload := got[len(prefix):]
		if err != nil {
			if len(payload) != 0 {
				t.Fatalf("failed read appended %d bytes", len(payload))
			}
			return
		}
		if len(payload) > MaxPacketLen {
			t.Fatalf("payload of %d bytes, bound %d", len(payload), MaxPacketLen)
		}
		pkt, err := AppendPacket(nil, payload)
		if err != nil {
			return // padding pushed a maximal packet over the bound
		}
		again, err := ReadPacket(nil, bytes.NewReader(pkt))
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("round trip: %d bytes, %v; was %d bytes", len(again), err, len(payload))
		}
	})
}
