package httpwire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/ip"
)

// headLines splits a decoded head into its start line and header lines.
func headLines(head []byte) (start []byte, headers [][]byte) {
	lines := bytes.Split(head, []byte{'\n'})
	start, headers = lines[0], lines[1:]
	if n := len(headers); n > 0 && len(headers[n-1]) == 0 {
		headers = headers[:n-1]
	}
	return start, headers
}

// checkHeadBounds fails t if a decoded head exceeds any input bound.
func checkHeadBounds(t *testing.T, head []byte) {
	t.Helper()
	start, headers := headLines(head)
	if len(start) > MaxLineLen {
		t.Fatalf("start line of %d bytes accepted", len(start))
	}
	if len(headers) > MaxHeaders {
		t.Fatalf("%d headers accepted", len(headers))
	}
	total := 0
	for _, h := range headers {
		if len(h) > MaxLineLen {
			t.Fatalf("header line of %d bytes accepted", len(h))
		}
		total += len(h)
	}
	if total > MaxHeaderLen {
		t.Fatalf("header block of %d bytes accepted", total)
	}
}

type field struct{ name, value string }

func fields(head []byte) []field {
	_, lines := headLines(head)
	fs := make([]field, len(lines))
	for i, l := range lines {
		k, v, _ := bytes.Cut(l, []byte{':'})
		fs[i] = field{string(bytes.TrimSpace(k)), string(bytes.TrimSpace(v))}
	}
	return fs
}

// FuzzReadResponse: any byte stream must decode without panicking and
// within every bound; an accepted response re-encoded by AppendResponse
// must decode to the same status, headers and body.
func FuzzReadResponse(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nServer: nginx\r\nContent-Type: text/html\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
		"HTTP/1.1 301 Moved Permanently\r\nLocation: https://example.org/\r\n\r\nmoved",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nbody",
		"HTTP/1.1 200\r\n\r\n",
		"HTTP/1.1 abc Oops\r\n\r\n",
		"HTTP/1.1 99 Tiny\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeaderNoColon\r\n\r\n",
		"HTTP/1.1 200 OK\r\n : empty name\r\n\r\n",
		"garbage\r\n\r\n",
		"",
		"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("a", MaxLineLen+10) + "\r\n\r\n",
		"HTTP/1.1 200 OK\r\n" + strings.Repeat("X-H: v\r\n", MaxHeaders+10) + "\r\n",
	} {
		f.Add([]byte(seed), uint16(0))
		f.Add([]byte(seed), uint16(3))
	}
	f.Fuzz(func(t *testing.T, raw []byte, maxBody uint16) {
		var resp Response
		err := ReadResponse(bufio.NewReader(bytes.NewReader(raw)), int(maxBody), &resp)
		limit := int(maxBody)
		if limit == 0 {
			limit = DefaultMaxBody
		}
		if len(resp.Body) > limit {
			t.Fatalf("body of %d bytes, bound %d", len(resp.Body), limit)
		}
		if err != nil {
			return
		}
		checkHeadBounds(t, resp.head)
		fs := fields(resp.head)
		if len(fs)+2 > MaxHeaders || len(resp.head)+64 > MaxHeaderLen {
			return // re-encoding adds headers the bounds may not admit
		}
		var hs []Header
		for _, h := range fs {
			if h.name == "" {
				return // not representable: AppendResponse would write ": v"
			}
			hs = append(hs, Header{h.name, h.value})
		}
		raw2 := AppendResponse(nil, resp.StatusCode, string(resp.Status), hs, resp.Body)
		var again Response
		if err := ReadResponse(bufio.NewReader(bytes.NewReader(raw2)), int(maxBody), &again); err != nil {
			t.Fatalf("re-encoded response rejected: %v\n%q", err, raw2)
		}
		if again.StatusCode != resp.StatusCode || !bytes.Equal(again.Status, resp.Status) || !bytes.Equal(again.Body, resp.Body) {
			t.Fatalf("round trip: %d %q %q, was %d %q %q",
				again.StatusCode, again.Status, again.Body, resp.StatusCode, resp.Status, resp.Body)
		}
		fs2 := fields(again.head)
		for i, h := range fs {
			if i >= len(fs2) || fs2[i] != h {
				t.Fatalf("round trip: headers %q, was %q", fs2, fs)
			}
		}
	})
}

// FuzzReadRequest: any byte stream must decode without panicking and
// within every bound, and a request written by AppendRequest from
// representable fields must read back to the same fields.
func FuzzReadRequest(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.1\r\nHost: 192.0.2.7\r\nUser-Agent: Mozilla/5.0 zgrab/0.x\r\nAccept: */*\r\nConnection: close\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / FTP/1.0\r\n\r\n",
		"GET / HTTP/1.1\r\nX\r\n\r\n",
		"NONSENSE\r\n\r\n",
	} {
		f.Add([]byte(seed), "GET", "/", "Mozilla/5.0 zgrab/0.x", uint64(0xc0000207), uint64(0))
	}
	f.Add([]byte{}, "HEAD", "/index.html", "", uint64(1), uint64(0x20010db8<<32))
	f.Fuzz(func(t *testing.T, raw []byte, method, target, ua string, lo, hi uint64) {
		var req Request
		if err := ReadRequest(bufio.NewReader(bytes.NewReader(raw)), &req); err == nil {
			checkHeadBounds(t, req.head)
			if !bytes.HasPrefix(req.Proto, []byte("HTTP/")) {
				t.Fatalf("accepted proto %q", req.Proto)
			}
		}

		host := ip.AddrFrom128(hi, lo)
		if hi == 0 {
			host = ip.AddrFrom4(uint32(lo))
		}
		if method == "" || strings.ContainsAny(method+target, " \r\n") || strings.ContainsAny(ua, "\r\n") ||
			strings.TrimSpace(ua) != ua || len(method)+len(target)+len(ua) > MaxLineLen/2 {
			return // not representable on one request line / header line
		}
		raw2 := AppendRequest(nil, method, target, host, ua)
		var again Request
		if err := ReadRequest(bufio.NewReader(bytes.NewReader(raw2)), &again); err != nil {
			t.Fatalf("written request rejected: %v\n%q", err, raw2)
		}
		h, _ := again.Get("Host")
		if string(again.Method) != method || string(again.Target) != target || string(h) != host.String() {
			t.Fatalf("round trip: %q %q host %q", again.Method, again.Target, h)
		}
		if got, ok := again.Get("User-Agent"); ok != (ua != "") || string(got) != ua {
			t.Fatalf("round trip: User-Agent %q,%v, want %q", got, ok, ua)
		}
	})
}
