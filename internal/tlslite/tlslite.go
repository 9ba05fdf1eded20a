// Package tlslite implements the TLS 1.2 wire format needed for a handshake
// grab: the record layer, ClientHello (with the cipher suites of modern
// Chrome, as the paper's ZGrab configuration sends), ServerHello, and the
// Certificate message carried as opaque DER blobs. The study's HTTPS grab
// considers a host accessible once the server's handshake flight parses, so
// no key exchange or record encryption is implemented — but every byte
// exchanged is valid TLS 1.2 that a real stack would produce or accept.
//
// Encoders append whole records to a caller-owned byte slice, framing the
// record and handshake headers in place in front of the body; decoders
// parse in place, returning views into the bytes they were given.
package tlslite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/rng"
)

// Record content types.
const (
	RecordHandshake = 22
	RecordAlert     = 21
)

// Handshake message types.
const (
	TypeClientHello     = 1
	TypeServerHello     = 2
	TypeCertificate     = 11
	TypeServerHelloDone = 14
)

// VersionTLS12 is the wire version of TLS 1.2.
const VersionTLS12 = 0x0303

// ChromeTLS12Suites are the TLS 1.2 cipher suites offered by modern Chrome,
// which the paper's methodology uses for the HTTPS handshake.
var ChromeTLS12Suites = []uint16{
	0xc02b, // ECDHE-ECDSA-AES128-GCM-SHA256
	0xc02f, // ECDHE-RSA-AES128-GCM-SHA256
	0xc02c, // ECDHE-ECDSA-AES256-GCM-SHA384
	0xc030, // ECDHE-RSA-AES256-GCM-SHA384
	0xcca9, // ECDHE-ECDSA-CHACHA20-POLY1305
	0xcca8, // ECDHE-RSA-CHACHA20-POLY1305
	0xc013, // ECDHE-RSA-AES128-CBC-SHA
	0xc014, // ECDHE-RSA-AES256-CBC-SHA
	0x009c, // RSA-AES128-GCM-SHA256
	0x009d, // RSA-AES256-GCM-SHA384
	0x002f, // RSA-AES128-CBC-SHA
	0x0035, // RSA-AES256-CBC-SHA
}

// Limits on untrusted input.
const (
	MaxRecordLen    = 1<<14 + 2048
	MaxHandshakeLen = 1 << 18
)

// Errors.
var (
	ErrMalformed    = errors.New("tlslite: malformed message")
	ErrRecordTooBig = errors.New("tlslite: record exceeds maximum length")
	ErrAlert        = errors.New("tlslite: received fatal alert")
)

// ClientHello is the first client flight. A parsed ClientHello's byte
// fields are views into the message body it was parsed from.
type ClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	ServerName   []byte // SNI extension host name, empty to omit

	// suites is ParseClientHello's reusable storage for CipherSuites, so
	// decoding never writes into a caller's (or ChromeTLS12Suites') slice.
	suites []uint16
}

// ServerHello is the server's handshake response. A parsed ServerHello's
// SessionID is a view into the message body it was parsed from.
type ServerHello struct {
	Version     uint16
	Random      [32]byte
	SessionID   []byte
	CipherSuite uint16
	Compression uint8
}

// Certificate carries the server certificate chain as opaque DER blobs,
// each a view into the message body it was parsed from.
type Certificate struct {
	Chain [][]byte
}

// NewClientHello builds a Chrome-shaped ClientHello with a random derived
// from key. serverName is referenced, not copied.
func NewClientHello(key rng.Key, serverName []byte) ClientHello {
	ch := ClientHello{
		Version:      VersionTLS12,
		CipherSuites: ChromeTLS12Suites,
		ServerName:   serverName,
	}
	s := key.Stream(0x636868) // "chh"
	for i := 0; i < 32; i += 8 {
		binary.BigEndian.PutUint64(ch.Random[i:], s.Uint64())
	}
	return ch
}

// --- record layer ---

// recordHeaderLen and handshakeHeaderLen are the framing in front of a
// handshake message body: content type, version, uint16 length; then
// message type and uint24 length.
const (
	recordHeaderLen    = 5
	handshakeHeaderLen = 4
)

// AppendRecord appends payload framed as one TLS record to b.
func AppendRecord(b []byte, contentType uint8, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordLen {
		return b, ErrRecordTooBig
	}
	b = append(b, contentType, byte(VersionTLS12>>8), byte(VersionTLS12&0xff),
		byte(len(payload)>>8), byte(len(payload)))
	return append(b, payload...), nil
}

// HandshakeReader assembles handshake messages across records. Records
// are read straight into its reassembly buffer, which Reset keeps, so one
// reader serves any number of connections without reallocating.
type HandshakeReader struct {
	r   io.Reader
	buf []byte // buf[off:] holds the unconsumed handshake bytes
	off int
}

// NewHandshakeReader returns a reader over r.
func NewHandshakeReader(r io.Reader) *HandshakeReader {
	h := new(HandshakeReader)
	h.Reset(r)
	return h
}

// Reset discards any buffered bytes and switches h to reading r, keeping
// the reassembly buffer's capacity.
func (h *HandshakeReader) Reset(r io.Reader) {
	h.r = r
	h.buf = h.buf[:0]
	h.off = 0
}

// Next returns the next handshake message (type and body). The body is a
// view into h's buffer, valid until the next call to Next or Reset. A
// fatal alert record yields ErrAlert.
func (h *HandshakeReader) Next() (uint8, []byte, error) {
	for len(h.buf)-h.off < handshakeHeaderLen {
		if err := h.fill(); err != nil {
			return 0, nil, err
		}
	}
	hdr := h.buf[h.off:]
	msgType := hdr[0]
	msgLen := int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if msgLen > MaxHandshakeLen {
		return 0, nil, ErrMalformed
	}
	for len(h.buf)-h.off < handshakeHeaderLen+msgLen {
		if err := h.fill(); err != nil {
			return 0, nil, err
		}
	}
	start := h.off + handshakeHeaderLen
	h.off = start + msgLen
	return msgType, h.buf[start:h.off], nil
}

// fill reads one record, appending a handshake payload to the reassembly
// buffer. The record header is read into the space the payload then
// overwrites, so a record costs no allocation once the buffer has grown.
func (h *HandshakeReader) fill() error {
	if h.off > 0 {
		// Drop consumed messages (invalidating their bodies, as Next
		// documents) before growing.
		h.buf = h.buf[:copy(h.buf, h.buf[h.off:])]
		h.off = 0
	}
	n := len(h.buf)
	h.buf = slices.Grow(h.buf, recordHeaderLen)
	hdr := h.buf[n : n+recordHeaderLen]
	if _, err := io.ReadFull(h.r, hdr); err != nil {
		return err
	}
	ct := hdr[0]
	l := int(binary.BigEndian.Uint16(hdr[3:]))
	if l > MaxRecordLen {
		return ErrRecordTooBig
	}
	h.buf = slices.Grow(h.buf, l)
	payload := h.buf[n : n+l]
	if _, err := io.ReadFull(h.r, payload); err != nil {
		return err
	}
	switch ct {
	case RecordHandshake:
		h.buf = h.buf[:n+l]
		return nil
	case RecordAlert:
		return ErrAlert
	default:
		return fmt.Errorf("tlslite: unexpected record type %d", ct)
	}
}

// beginHandshake appends a record header and a handshake header for
// msgType, both with lengths left for endHandshake to patch once the body
// has been appended after them. It returns the record's offset in b.
func beginHandshake(b []byte, msgType uint8) ([]byte, int) {
	start := len(b)
	b = append(b, RecordHandshake, byte(VersionTLS12>>8), byte(VersionTLS12&0xff), 0, 0,
		msgType, 0, 0, 0)
	return b, start
}

// endHandshake patches the record and handshake lengths of the message
// begun at offset start. A message too long for one record is removed
// again and reported as ErrRecordTooBig.
func endHandshake(b []byte, start int) ([]byte, error) {
	msg := len(b) - start - recordHeaderLen
	if msg > MaxRecordLen {
		return b[:start], ErrRecordTooBig
	}
	body := msg - handshakeHeaderLen
	binary.BigEndian.PutUint16(b[start+3:], uint16(msg))
	b[start+6] = byte(body >> 16)
	b[start+7] = byte(body >> 8)
	b[start+8] = byte(body)
	return b, nil
}

// --- ClientHello ---

// Append appends the ClientHello as one handshake record to b.
func (ch *ClientHello) Append(b []byte) ([]byte, error) {
	b, start := beginHandshake(b, TypeClientHello)
	return endHandshake(ch.appendBody(b), start)
}

// appendBody appends the ClientHello body (without the handshake header).
func (ch *ClientHello) appendBody(b []byte) []byte {
	b = append(b, byte(ch.Version>>8), byte(ch.Version))
	b = append(b, ch.Random[:]...)
	b = append(b, byte(len(ch.SessionID)))
	b = append(b, ch.SessionID...)
	b = append(b, byte(len(ch.CipherSuites)*2>>8), byte(len(ch.CipherSuites)*2))
	for _, cs := range ch.CipherSuites {
		b = append(b, byte(cs>>8), byte(cs))
	}
	b = append(b, 1, 0) // compression: null only
	// Extensions: at most server_name, with one host_name entry.
	if n := len(ch.ServerName); n > 0 {
		b = append(b, byte((n+9)>>8), byte(n+9)) // extensions length
		b = append(b, 0, 0)                      // type server_name
		b = append(b, byte((n+5)>>8), byte(n+5)) // extension data length
		b = append(b, byte((n+3)>>8), byte(n+3)) // server_name_list length
		b = append(b, 0)                         // name_type host_name
		b = append(b, byte(n>>8), byte(n))
		return append(b, ch.ServerName...)
	}
	return append(b, 0, 0)
}

// ParseClientHello decodes a ClientHello body into ch. SessionID and
// ServerName become views into b; CipherSuites reuses storage ch owns.
func ParseClientHello(b []byte, ch *ClientHello) error {
	if len(b) < 2+32+1 {
		return ErrMalformed
	}
	ch.Version = binary.BigEndian.Uint16(b)
	copy(ch.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+2 {
		return ErrMalformed
	}
	ch.SessionID = b[1 : 1+sidLen]
	b = b[1+sidLen:]
	csLen := int(binary.BigEndian.Uint16(b))
	if csLen%2 != 0 || len(b) < 2+csLen+1 {
		return ErrMalformed
	}
	ch.suites = ch.suites[:0]
	for i := 0; i < csLen; i += 2 {
		ch.suites = append(ch.suites, binary.BigEndian.Uint16(b[2+i:]))
	}
	ch.CipherSuites = ch.suites
	ch.ServerName = nil
	b = b[2+csLen:]
	compLen := int(b[0])
	if len(b) < 1+compLen {
		return ErrMalformed
	}
	b = b[1+compLen:]
	// Extensions (optional).
	if len(b) >= 2 {
		extLen := int(binary.BigEndian.Uint16(b))
		if len(b) < 2+extLen {
			return ErrMalformed
		}
		ext := b[2 : 2+extLen]
		for len(ext) >= 4 {
			typ := binary.BigEndian.Uint16(ext)
			l := int(binary.BigEndian.Uint16(ext[2:]))
			if len(ext) < 4+l {
				return ErrMalformed
			}
			if typ == 0 { // server_name
				if name, err := parseSNI(ext[4 : 4+l]); err == nil {
					ch.ServerName = name
				}
			}
			ext = ext[4+l:]
		}
	}
	return nil
}

func parseSNI(b []byte) ([]byte, error) {
	if len(b) < 2 {
		return nil, ErrMalformed
	}
	listLen := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+listLen || listLen < 3 {
		return nil, ErrMalformed
	}
	entry := b[2 : 2+listLen]
	if entry[0] != 0 {
		return nil, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(entry[1:]))
	if len(entry) < 3+n {
		return nil, ErrMalformed
	}
	return entry[3 : 3+n], nil
}

// --- ServerHello ---

// Append appends the ServerHello as one handshake record to b.
func (sh *ServerHello) Append(b []byte) ([]byte, error) {
	b, start := beginHandshake(b, TypeServerHello)
	b = append(b, byte(sh.Version>>8), byte(sh.Version))
	b = append(b, sh.Random[:]...)
	b = append(b, byte(len(sh.SessionID)))
	b = append(b, sh.SessionID...)
	b = append(b, byte(sh.CipherSuite>>8), byte(sh.CipherSuite))
	b = append(b, sh.Compression)
	return endHandshake(b, start)
}

// ParseServerHello decodes a ServerHello body into sh; SessionID becomes a
// view into b.
func ParseServerHello(b []byte, sh *ServerHello) error {
	if len(b) < 2+32+1 {
		return ErrMalformed
	}
	sh.Version = binary.BigEndian.Uint16(b)
	copy(sh.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+3 {
		return ErrMalformed
	}
	sh.SessionID = b[1 : 1+sidLen]
	b = b[1+sidLen:]
	sh.CipherSuite = binary.BigEndian.Uint16(b)
	sh.Compression = b[2]
	return nil
}

// --- Certificate ---

// AppendCertificate appends a Certificate message carrying a one-entry
// chain of n bytes, as one handshake record, to b. It returns the extended
// slice and the entry's n (zeroed) bytes, for the caller to write the
// certificate into in place.
func AppendCertificate(b []byte, n int) ([]byte, []byte, error) {
	b, start := beginHandshake(b, TypeCertificate)
	b = append(b, byte((n+3)>>16), byte((n+3)>>8), byte(n+3)) // chain length
	b = append(b, byte(n>>16), byte(n>>8), byte(n))           // entry length
	b = append(b, make([]byte, n)...)
	b, err := endHandshake(b, start)
	if err != nil {
		return b, nil, err
	}
	return b, b[len(b)-n:], nil
}

// ParseCertificate decodes a Certificate body into c; the chain entries
// become views into b and c.Chain's storage is reused.
func ParseCertificate(b []byte, c *Certificate) error {
	c.Chain = c.Chain[:0]
	if len(b) < 3 {
		return ErrMalformed
	}
	total := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
	if len(b) < 3+total {
		return ErrMalformed
	}
	inner := b[3 : 3+total]
	for len(inner) > 0 {
		if len(inner) < 3 {
			return ErrMalformed
		}
		n := int(inner[0])<<16 | int(inner[1])<<8 | int(inner[2])
		if len(inner) < 3+n {
			return ErrMalformed
		}
		c.Chain = append(c.Chain, inner[3:3+n])
		inner = inner[3+n:]
	}
	return nil
}

// AppendServerHelloDone appends the (empty) ServerHelloDone message, as
// one handshake record, to b.
func AppendServerHelloDone(b []byte) []byte {
	b, start := beginHandshake(b, TypeServerHelloDone)
	b, _ = endHandshake(b, start) // an empty body always fits
	return b
}

// AppendAlert appends a two-byte alert record (level, description) to b.
func AppendAlert(b []byte, level, desc uint8) []byte {
	b, _ = AppendRecord(b, RecordAlert, []byte{level, desc}) // two bytes always fit
	return b
}
