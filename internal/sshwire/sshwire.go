// Package sshwire implements the SSH transport-layer wire format from
// RFC 4253 as far as the study's grab needs it: the identification-string
// exchange ("SSH-2.0-..."), the binary packet protocol (pre-encryption), and
// the SSH_MSG_KEXINIT message. The paper's SSH grab completes the protocol
// version exchange and terminates, so no key exchange or crypto is
// performed, but the bytes on the wire are genuine SSH.
package sshwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"

	"repro/internal/rng"
)

// RFC 4253 message numbers used here.
const (
	MsgDisconnect = 1
	MsgKexInit    = 20
)

// Limits on untrusted input.
const (
	MaxIDLen       = 255   // RFC 4253 §4.2: max identification line incl. CRLF
	MaxBannerLines = 64    // lines a server may send before its ID string
	MaxPacketLen   = 35000 // RFC 4253 §6.1 minimum required supported size
)

// Errors.
var (
	ErrIDTooLong    = errors.New("sshwire: identification string too long")
	ErrNotSSH       = errors.New("sshwire: peer did not send an SSH identification")
	ErrPacketTooBig = errors.New("sshwire: packet exceeds maximum length")
	ErrMalformed    = errors.New("sshwire: malformed packet")
)

// ID is a parsed identification string.
type ID struct {
	ProtoVersion    string // "2.0"
	SoftwareVersion string // e.g. "OpenSSH_7.4"
	Comments        string
}

// AppendID appends an identification line terminated by CRLF to b.
func AppendID(b []byte, id ID) ([]byte, error) {
	start := len(b)
	b = append(b, "SSH-"...)
	b = append(b, id.ProtoVersion...)
	b = append(b, '-')
	b = append(b, id.SoftwareVersion...)
	if id.Comments != "" {
		b = append(b, ' ')
		b = append(b, id.Comments...)
	}
	b = append(b, "\r\n"...)
	if len(b)-start > MaxIDLen {
		return b[:start], ErrIDTooLong
	}
	return b, nil
}

// ReadID reads the peer's identification string, skipping any pre-ID banner
// lines a server is allowed to send (RFC 4253 §4.2). The ID line is the
// only one converted to a string; its fields share that one allocation.
// br's buffer must hold more than MaxIDLen bytes, as bufio's default does.
func ReadID(br *bufio.Reader) (ID, error) {
	for i := 0; i < MaxBannerLines; i++ {
		line, err := readLine(br)
		if err != nil {
			return ID{}, err
		}
		if bytes.HasPrefix(line, []byte("SSH-")) {
			return parseID(string(line))
		}
	}
	return ID{}, ErrNotSSH
}

// readLine returns the next line from br without its LF and one trailing
// CR, as a view into br's buffer valid until the next read. A line of more
// than MaxIDLen bytes before its LF is ErrIDTooLong, even when the peer
// stops sending mid-line.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == nil {
		line = line[:len(line)-1]
	}
	if len(line) > MaxIDLen || err == bufio.ErrBufferFull {
		return nil, ErrIDTooLong
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line, []byte{'\r'}), nil
}

func parseID(line string) (ID, error) {
	// SSH-protoversion-softwareversion [SP comments]
	rest := strings.TrimPrefix(line, "SSH-")
	dash := strings.IndexByte(rest, '-')
	if dash < 0 {
		return ID{}, ErrNotSSH
	}
	id := ID{ProtoVersion: rest[:dash]}
	swAndComments := rest[dash+1:]
	if sp := strings.IndexByte(swAndComments, ' '); sp >= 0 {
		id.SoftwareVersion = swAndComments[:sp]
		id.Comments = swAndComments[sp+1:]
	} else {
		id.SoftwareVersion = swAndComments
	}
	if id.ProtoVersion == "" || id.SoftwareVersion == "" {
		return ID{}, ErrNotSSH
	}
	return id, nil
}

// PacketHeaderLen is the framing in front of a packet's payload: uint32
// packet_length and byte padding_length.
const PacketHeaderLen = 5

// AppendPacket appends one unencrypted SSH binary packet (RFC 4253 §6) to
// b: uint32 packet_length, byte padding_length, payload, padding. Block
// size 8 applies before encryption; padding is at least 4 bytes.
func AppendPacket(b []byte, payload []byte) ([]byte, error) {
	const block = 8
	// packet_length covers padding_length byte + payload + padding.
	padLen := block - (PacketHeaderLen+len(payload))%block
	if padLen < 4 {
		padLen += block
	}
	total := 1 + len(payload) + padLen
	if total+4 > MaxPacketLen {
		return b, ErrPacketTooBig
	}
	b = binary.BigEndian.AppendUint32(b, uint32(total))
	b = append(b, byte(padLen))
	b = append(b, payload...)
	// Padding bytes: arbitrary; deterministic here.
	for i := 0; i < padLen; i++ {
		b = append(b, byte(i*37))
	}
	return b, nil
}

// ReadPacket reads one unencrypted SSH binary packet from r and appends
// its payload to b. The packet is read straight into b's spare capacity,
// so a b with room for it costs no allocation.
func ReadPacket(b []byte, r io.Reader) ([]byte, error) {
	n := len(b)
	b = slices.Grow(b, 4)
	lenBuf := b[n : n+4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return b[:n], err
	}
	pktLen := binary.BigEndian.Uint32(lenBuf)
	if pktLen < 5 || pktLen > MaxPacketLen {
		return b[:n], ErrPacketTooBig
	}
	b = slices.Grow(b, int(pktLen))
	body := b[n : n+int(pktLen)]
	if _, err := io.ReadFull(r, body); err != nil {
		return b[:n], err
	}
	padLen := int(body[0])
	if padLen < 4 || 1+padLen > int(pktLen) {
		return b[:n], ErrMalformed
	}
	// Shift the payload over the padding_length byte.
	return b[:n+copy(body, body[1:int(pktLen)-padLen])], nil
}

// KexInit is the SSH_MSG_KEXINIT message (RFC 4253 §7.1).
type KexInit struct {
	Cookie                  [16]byte
	KexAlgorithms           []string
	HostKeyAlgorithms       []string
	CiphersClientServer     []string
	CiphersServerClient     []string
	MACsClientServer        []string
	MACsServerClient        []string
	CompressionClientServer []string
	CompressionServerClient []string
	LanguagesClientServer   []string
	LanguagesServerClient   []string
	FirstKexPacketFollows   bool
}

// DefaultKexInit returns a realistic OpenSSH-flavoured KEXINIT with a cookie
// derived from key.
func DefaultKexInit(key rng.Key) *KexInit {
	k := &KexInit{
		KexAlgorithms:           []string{"curve25519-sha256", "diffie-hellman-group14-sha256"},
		HostKeyAlgorithms:       []string{"ssh-ed25519", "rsa-sha2-256"},
		CiphersClientServer:     []string{"chacha20-poly1305@openssh.com", "aes128-ctr"},
		CiphersServerClient:     []string{"chacha20-poly1305@openssh.com", "aes128-ctr"},
		MACsClientServer:        []string{"hmac-sha2-256"},
		MACsServerClient:        []string{"hmac-sha2-256"},
		CompressionClientServer: []string{"none"},
		CompressionServerClient: []string{"none"},
	}
	PutCookie(k.Cookie[:], key)
	return k
}

// CookieOffset is the offset of the 16-byte cookie in a KEXINIT payload,
// after the message byte. A server that sends one KEXINIT to many peers
// can encode it once and patch only the cookie (PutCookie) per peer.
const CookieOffset = 1

// PutCookie writes the 16-byte KEXINIT cookie derived from key into dst.
func PutCookie(dst []byte, key rng.Key) {
	s := key.Stream(0x6b6578) // "kex"
	binary.BigEndian.PutUint64(dst[0:8], s.Uint64())
	binary.BigEndian.PutUint64(dst[8:16], s.Uint64())
}

// Append appends the KEXINIT payload, including the leading message byte,
// to b.
func (k *KexInit) Append(b []byte) []byte {
	b = append(b, MsgKexInit)
	b = append(b, k.Cookie[:]...)
	for _, list := range k.nameLists() {
		b = appendNameList(b, *list)
	}
	if k.FirstKexPacketFollows {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, 0, 0, 0, 0) // reserved uint32
}

// ParseKexInit decodes a KEXINIT payload (starting at the message byte).
func ParseKexInit(payload []byte) (*KexInit, error) {
	if len(payload) < 1+16 || payload[0] != MsgKexInit {
		return nil, ErrMalformed
	}
	k := &KexInit{}
	copy(k.Cookie[:], payload[1:17])
	rest := payload[17:]
	var err error
	for _, list := range k.nameLists() {
		*list, rest, err = readNameList(rest)
		if err != nil {
			return nil, err
		}
	}
	if len(rest) < 5 {
		return nil, ErrMalformed
	}
	k.FirstKexPacketFollows = rest[0] != 0
	return k, nil
}

// nameLists returns pointers to the ten name-list fields in wire order.
func (k *KexInit) nameLists() []*[]string {
	return []*[]string{
		&k.KexAlgorithms, &k.HostKeyAlgorithms,
		&k.CiphersClientServer, &k.CiphersServerClient,
		&k.MACsClientServer, &k.MACsServerClient,
		&k.CompressionClientServer, &k.CompressionServerClient,
		&k.LanguagesClientServer, &k.LanguagesServerClient,
	}
}

func appendNameList(b []byte, names []string) []byte {
	n := max(len(names)-1, 0) // commas
	for _, name := range names {
		n += len(name)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	return b
}

func readNameList(b []byte) ([]string, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrMalformed
	}
	n := binary.BigEndian.Uint32(b)
	if uint32(len(b)-4) < n {
		return nil, nil, ErrMalformed
	}
	s := string(b[4 : 4+n])
	rest := b[4+n:]
	if s == "" {
		return nil, rest, nil
	}
	return strings.Split(s, ","), rest, nil
}
