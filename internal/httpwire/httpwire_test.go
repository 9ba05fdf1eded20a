package httpwire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/ip"
)

// readResponse decodes raw into a fresh Response.
func readResponse(raw []byte, maxBody int) (*Response, error) {
	resp := new(Response)
	return resp, ReadResponse(bufio.NewReader(bytes.NewReader(raw)), maxBody, resp)
}

// readRequest decodes raw into a fresh Request.
func readRequest(raw []byte) (*Request, error) {
	req := new(Request)
	return req, ReadRequest(bufio.NewReader(bytes.NewReader(raw)), req)
}

func TestRequestRoundTrip(t *testing.T) {
	raw := AppendRequest(nil, "GET", "/", ip.MustParseAddr("192.0.2.7"), "Mozilla/5.0 zgrab/0.x")
	var req Request
	if err := ReadRequest(bufio.NewReader(bytes.NewReader(raw)), &req); err != nil {
		t.Fatal(err)
	}
	if string(req.Method) != "GET" || string(req.Target) != "/" || string(req.Proto) != "HTTP/1.1" {
		t.Errorf("request line: %q %q %q", req.Method, req.Target, req.Proto)
	}
	if host, ok := req.Get("host"); !ok || string(host) != "192.0.2.7" {
		t.Errorf("Host = %q,%v", host, ok)
	}
	if ua, ok := req.Get("User-Agent"); !ok || !bytes.Contains(ua, []byte("zgrab")) {
		t.Errorf("User-Agent = %q,%v", ua, ok)
	}
	if _, ok := req.Get("Connection"); !ok {
		t.Error("Connection header missing")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body := []byte("<html><title>Index</title></html>")
	raw := AppendResponse(nil, 200, "OK", []Header{{"Server", "nginx"}, {"Content-Type", "text/html"}}, body)
	resp, err := readResponse(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Status) != "OK" || string(resp.Proto) != "HTTP/1.1" {
		t.Errorf("status: %q %d %q", resp.Proto, resp.StatusCode, resp.Status)
	}
	if sv, _ := resp.Get("server"); string(sv) != "nginx" {
		t.Errorf("Server = %q", sv)
	}
	if !bytes.Equal(resp.Body, body) {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestResponseBodyCapped(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 100<<10)
	resp, err := readResponse(AppendResponse(nil, 200, "OK", nil, big), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != 1024 {
		t.Errorf("body len = %d, want capped at 1024", len(resp.Body))
	}
}

func TestResponseWithoutContentLengthReadsToEOF(t *testing.T) {
	raw := "HTTP/1.1 301 Moved Permanently\r\nLocation: https://example.org/\r\n\r\nmoved"
	resp, err := readResponse([]byte(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 301 {
		t.Errorf("code = %d", resp.StatusCode)
	}
	if string(resp.Body) != "moved" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestMalformedResponses(t *testing.T) {
	bad := []string{
		"",                          // empty
		"garbage\r\n\r\n",           // no HTTP/
		"HTTP/1.1\r\n\r\n",          // no status code
		"HTTP/1.1 abc Oops\r\n\r\n", // non-numeric code
		"HTTP/1.1 99 Tiny\r\n\r\n",  // out-of-range code
		"HTTP/1.1 200 OK\r\nBadHeaderNoColon\r\n\r\n",
	}
	for _, raw := range bad {
		if _, err := readResponse([]byte(raw), 0); err == nil {
			t.Errorf("ReadResponse(%q) succeeded", raw)
		}
	}
}

func TestMalformedRequests(t *testing.T) {
	bad := []string{
		"GET /\r\n\r\n",               // missing proto
		"GET / FTP/1.0\r\n\r\n",       // wrong proto
		"GET / HTTP/1.1\r\nX\r\n\r\n", // header without colon
	}
	for _, raw := range bad {
		if _, err := readRequest([]byte(raw)); err == nil {
			t.Errorf("ReadRequest(%q) succeeded", raw)
		}
	}
}

func TestHeaderLimits(t *testing.T) {
	var b strings.Builder
	b.WriteString("HTTP/1.1 200 OK\r\n")
	for i := 0; i < MaxHeaders+10; i++ {
		b.WriteString("X-H: v\r\n")
	}
	b.WriteString("\r\n")
	if _, err := readResponse([]byte(b.String()), 0); err == nil {
		t.Error("unbounded header count accepted")
	}

	long := "HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("a", MaxLineLen+10) + "\r\n\r\n"
	if _, err := readResponse([]byte(long), 0); err == nil {
		t.Error("oversized header line accepted")
	}
}

func TestContentLengthIgnoredWhenInsane(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nbody"
	resp, err := readResponse([]byte(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "body" {
		t.Errorf("body = %q", resp.Body)
	}
}

// TestDecodersReuseStorage decodes a sequence of messages into one Request
// and one Response: every decode must see only its own message, and once
// the storage has grown a decode allocates nothing.
func TestDecodersReuseStorage(t *testing.T) {
	var resp Response
	var br bufio.Reader
	var rd bytes.Reader
	for i, m := range []struct{ raw, server, body string }{
		{"HTTP/1.1 200 OK\r\nServer: a-long-server-name/1.0\r\nContent-Length: 5\r\n\r\nhello", "a-long-server-name/1.0", "hello"},
		{"HTTP/1.0 404 Gone\r\n\r\nxy", "", "xy"},
		{"HTTP/1.1 301 Moved\r\nserver: b\r\n\r\n", "b", ""},
	} {
		rd.Reset([]byte(m.raw))
		br.Reset(&rd)
		if err := ReadResponse(&br, 0, &resp); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		sv, _ := resp.Get("Server")
		if string(sv) != m.server || string(resp.Body) != m.body {
			t.Errorf("message %d: Server %q body %q, want %q %q", i, sv, resp.Body, m.server, m.body)
		}
	}
	raw := AppendResponse(nil, 200, "OK", []Header{{"Server", "nginx"}}, []byte("<html></html>"))
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(raw)
		br.Reset(&rd)
		if err := ReadResponse(&br, 0, &resp); err != nil {
			t.Fatal(err)
		}
		if _, ok := resp.Get("server"); !ok {
			t.Fatal("no Server header")
		}
	})
	if allocs != 0 {
		t.Errorf("ReadResponse into warm storage allocates %.1f, want 0", allocs)
	}

	var req Request
	rawReq := AppendRequest(nil, "GET", "/index.html", ip.MustParseAddr("2001:db8::7"), "ua")
	allocs = testing.AllocsPerRun(100, func() {
		rd.Reset(rawReq)
		br.Reset(&rd)
		if err := ReadRequest(&br, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadRequest into warm storage allocates %.1f, want 0", allocs)
	}
	if h, _ := req.Get("Host"); string(req.Target) != "/index.html" || string(h) != "2001:db8::7" {
		t.Errorf("request: target %q host %q", req.Target, h)
	}
}
