// Package httpwire implements the minimal HTTP/1.1 client and server wire
// exchange used by the study's HTTP grabs: the client sends GET / and reads
// the status line, headers, and a bounded body; the server parses a request
// and writes a response. It deliberately implements the wire format directly
// (rather than net/http) so the grab works over any net.Conn — including the
// simulation fabric's virtual connections — with strict bounds on what is
// read from untrusted peers.
//
// The codec is allocation-lean: encoders append a whole message to a
// caller-owned byte slice (sent with one Write), and decoders parse in
// place into a caller-owned Request or Response whose storage is reused
// from one message to the next.
package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ip"
)

// Limits on untrusted input.
const (
	MaxLineLen     = 8 << 10  // max request/status/header line
	MaxHeaderLen   = 32 << 10 // max total header block
	MaxHeaders     = 100
	DefaultMaxBody = 64 << 10
)

// Errors.
var (
	ErrLineTooLong    = errors.New("httpwire: line too long")
	ErrTooManyHeaders = errors.New("httpwire: too many headers")
	ErrMalformed      = errors.New("httpwire: malformed message")
)

// Request is a parsed HTTP request (server side). ReadRequest decodes in
// place: the byte fields are views into storage the Request owns, valid
// until the next ReadRequest into it.
type Request struct {
	Method []byte
	Target []byte
	Proto  []byte
	head   []byte // start line and header lines, each '\n'-terminated
}

// Response is a parsed HTTP response (client side). ReadResponse decodes
// in place: the byte fields are views into storage the Response owns,
// valid until the next ReadResponse into it.
type Response struct {
	Proto      []byte
	StatusCode int
	Status     []byte
	Body       []byte // bounded; may be truncated at the configured cap
	head       []byte // status line and header lines, each '\n'-terminated
}

// Header is one header field to write.
type Header struct {
	Name, Value string
}

// Get returns the first value of a response header, case-insensitively. The
// value is a view into r, valid until the next ReadResponse into it.
func (r *Response) Get(name string) ([]byte, bool) { return getHeader(r.head, name) }

// Get returns the first value of a request header, case-insensitively. The
// value is a view into r, valid until the next ReadRequest into it.
func (r *Request) Get(name string) ([]byte, bool) { return getHeader(r.head, name) }

// getHeader scans a stored head: the start line, then one validated
// "name: value" line per header. ReadLine strips line terminators, so a
// stored line never contains '\n'.
func getHeader(head []byte, name string) ([]byte, bool) {
	_, rest, _ := bytes.Cut(head, []byte{'\n'})
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		k, v, _ := bytes.Cut(line, []byte{':'})
		if bytes.EqualFold(bytes.TrimSpace(k), []byte(name)) {
			return bytes.TrimSpace(v), true
		}
	}
	return nil, false
}

// AppendRequest appends a GET-style request to b. host appears in the Host
// header, as ZGrab sends the target IP.
func AppendRequest(b []byte, method, target string, host ip.Addr, userAgent string) []byte {
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = host.AppendTo(b)
	b = append(b, "\r\n"...)
	if userAgent != "" {
		b = append(b, "User-Agent: "...)
		b = append(b, userAgent...)
		b = append(b, "\r\n"...)
	}
	return append(b, "Accept: */*\r\nConnection: close\r\n\r\n"...)
}

// ReadRequest parses a request head from br into req (server side).
func ReadRequest(br *bufio.Reader, req *Request) error {
	head, err := appendLine(req.head[:0], br)
	req.head = head
	if err != nil {
		return err
	}
	// "METHOD SP TARGET SP PROTO", PROTO being the rest of the line.
	method, rest, ok1 := bytes.Cut(head, []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok1 || !ok2 || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		return ErrMalformed
	}
	m, t := len(method), len(target)
	head, err = readHeaders(append(head, '\n'), br)
	req.head = head
	if err != nil {
		return err
	}
	req.Method = head[:m]
	req.Target = head[m+1 : m+1+t]
	req.Proto = head[m+1+t+1 : m+1+t+1+len(proto)]
	return nil
}

// AppendResponse appends a complete response with the given headers and
// body to b.
func AppendResponse(b []byte, statusCode int, status string, headers []Header, body []byte) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(statusCode), 10)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, "\r\n"...)
	hasLen := false
	for _, h := range headers {
		if strings.EqualFold(h.Name, "Content-Length") {
			hasLen = true
		}
		b = append(b, h.Name...)
		b = append(b, ": "...)
		b = append(b, h.Value...)
		b = append(b, "\r\n"...)
	}
	if !hasLen {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Connection: close\r\n\r\n"...)
	return append(b, body...)
}

// ReadResponse parses a response from br into resp, reading at most
// maxBody bytes of body (0 means DefaultMaxBody).
func ReadResponse(br *bufio.Reader, maxBody int, resp *Response) error {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	resp.Body = resp.Body[:0]
	head, err := appendLine(resp.head[:0], br)
	resp.head = head
	if err != nil {
		return err
	}
	// "PROTO SP CODE [SP STATUS]", STATUS being the rest of the line.
	proto, rest, ok := bytes.Cut(head, []byte{' '})
	if !ok || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		return ErrMalformed
	}
	codeText, status, hasStatus := bytes.Cut(rest, []byte{' '})
	// The string conversions below stay on the stack: Atoi does not
	// retain its argument.
	code, err := strconv.Atoi(string(codeText))
	if err != nil || code < 100 || code > 999 {
		return ErrMalformed
	}
	p, c := len(proto), len(codeText)
	head, err = readHeaders(append(head, '\n'), br)
	resp.head = head
	if err != nil {
		return err
	}
	resp.Proto = head[:p]
	resp.StatusCode = code
	resp.Status = nil
	if hasStatus {
		resp.Status = head[p+1+c+1 : p+1+c+1+len(status)]
	}

	// Body: honor Content-Length if present and sane, else read to EOF,
	// always bounded by maxBody. Reads land directly in the body slice.
	limit := maxBody
	if v, ok := resp.Get("Content-Length"); ok {
		if n, err := strconv.Atoi(string(bytes.TrimSpace(v))); err == nil && n >= 0 && n < limit {
			limit = n
		}
	}
	body := resp.Body
	for len(body) < limit {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(limit-len(body), 4096))
		}
		n, err := br.Read(body[len(body):min(cap(body), limit)])
		body = body[:len(body)+n]
		if err != nil {
			if err == io.EOF {
				break
			}
			// Connection errors after the head still yield the
			// head: a grab that got the status line succeeded.
			if isConnError(err) {
				break
			}
			resp.Body = body
			return err
		}
	}
	resp.Body = body
	return nil
}

func isConnError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.ErrUnexpectedEOF)
}

// appendLine appends one line from br (without its CRLF) to b, copying
// bufio's view of it exactly once.
func appendLine(b []byte, br *bufio.Reader) ([]byte, error) {
	n := 0
	for {
		chunk, isPrefix, err := br.ReadLine()
		if err != nil {
			return b, err
		}
		n += len(chunk)
		if n > MaxLineLen {
			return b, ErrLineTooLong
		}
		b = append(b, chunk...)
		if !isPrefix {
			return b, nil
		}
	}
}

// readHeaders appends header lines from br to head, each validated and
// '\n'-terminated, up to and excluding the blank line that ends the head.
func readHeaders(head []byte, br *bufio.Reader) ([]byte, error) {
	total, count := 0, 0
	for {
		start := len(head)
		var err error
		head, err = appendLine(head, br)
		if err != nil {
			return head, err
		}
		line := head[start:]
		if len(line) == 0 {
			return head, nil
		}
		total += len(line)
		if total > MaxHeaderLen {
			return head, ErrTooManyHeaders
		}
		if count >= MaxHeaders {
			return head, ErrTooManyHeaders
		}
		if colon := bytes.IndexByte(line, ':'); colon <= 0 {
			return head, ErrMalformed
		}
		count++
		head = append(head, '\n')
	}
}
