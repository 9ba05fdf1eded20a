package vconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/ip"
)

func TestBasicExchange(t *testing.T) {
	c, s := PipeLabeled("client", "server")
	defer c.Close()
	defer s.Close()

	go func() {
		buf := make([]byte, 16)
		n, _ := s.Read(buf)
		s.Write(bytes.ToUpper(buf[:n]))
	}()

	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "HELLO" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestCloseDeliversEOFAfterDrain(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	c.Write([]byte("tail"))
	c.Close()

	buf := make([]byte, 16)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("first read = %q, %v", buf[:n], err)
	}
	if _, err := s.Read(buf); err != io.EOF {
		t.Errorf("after drain err = %v, want EOF", err)
	}
}

func TestAbortDeliversReset(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	c.Write([]byte("data you never see"))
	c.Abort()

	buf := make([]byte, 64)
	if _, err := s.Read(buf); !errors.Is(err, ErrReset) {
		t.Errorf("read after abort = %v, want ErrReset", err)
	}
	if _, err := s.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Errorf("write after abort = %v, want ErrReset", err)
	}
	if !errors.Is(ErrReset, syscall.ECONNRESET) {
		t.Errorf("ErrReset %v does not match syscall.ECONNRESET", ErrReset)
	}
}

func TestAbortUnblocksPendingRead(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := s.Read(buf)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Abort()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrReset) {
			t.Errorf("err = %v, want ErrReset", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending read not unblocked by abort")
	}
}

func TestReadDeadline(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	defer c.Close()
	defer s.Close()
	s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 8)
	start := time.Now()
	_, err := s.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Error("deadline fired far too late")
	}
}

func TestWriteDeadlineOnFullWindow(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	defer c.Close()
	defer s.Close()
	c.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	// Fill beyond the window with no reader draining.
	big := make([]byte, defaultWindow+1)
	_, err := c.Write(big)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestExpiredDeadlineFailsImmediately(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	defer c.Close()
	defer s.Close()
	s.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := s.Read(make([]byte, 1)); err == nil {
		t.Fatal("read with expired deadline succeeded")
	}
}

func TestWriteAfterPeerCloseFails(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	s.Close()
	// The peer's reader is gone; our writes should fail (EPIPE/RST).
	// Note data may be accepted into the buffer before the close is
	// seen; loop until the error surfaces.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Write([]byte("x")); err != nil {
			return
		}
	}
	t.Fatal("write to closed peer never failed")
}

func TestCloseWriteHalfClose(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	defer c.Close()
	defer s.Close()
	s.Write([]byte("tail"))
	s.CloseWrite()
	// The peer's writes are still accepted after the half-close — the
	// guarantee the fabric's close-after-accept teardown relies on to
	// keep grab outcomes independent of write/close ordering.
	if _, err := c.Write([]byte("greeting")); err != nil {
		t.Fatalf("write after peer CloseWrite = %v", err)
	}
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("read buffered data = %q, %v", buf[:n], err)
	}
	if _, err := c.Read(buf); err != io.EOF {
		t.Errorf("read after drain = %v, want io.EOF", err)
	}
	if _, err := c.Write([]byte("more")); err != nil {
		t.Errorf("second write after peer CloseWrite = %v", err)
	}
}

func TestLocalCloseFailsLocalIO(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	defer s.Close()
	c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write after local close = %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("read after local close = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestAddrs(t *testing.T) {
	c, s := PipeLabeled("10.0.0.1:40000", "192.0.2.7:443")
	defer c.Close()
	defer s.Close()
	if c.LocalAddr().String() != "10.0.0.1:40000" || c.RemoteAddr().String() != "192.0.2.7:443" {
		t.Errorf("client addrs: %v -> %v", c.LocalAddr(), c.RemoteAddr())
	}
	if s.LocalAddr().String() != "192.0.2.7:443" || s.RemoteAddr().String() != "10.0.0.1:40000" {
		t.Errorf("server addrs: %v -> %v", s.LocalAddr(), s.RemoteAddr())
	}
	if c.LocalAddr().Network() != "vtcp" {
		t.Errorf("network = %q", c.LocalAddr().Network())
	}
}

func TestLargeTransfer(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		c.Write(payload)
		c.Close()
	}()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted: %d bytes vs %d", len(got), len(payload))
	}
}

func TestConcurrentBidirectional(t *testing.T) {
	c, s := PipeLabeled("c", "s")
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1024)
		for i := 0; i < 100; i++ {
			s.Write(buf)
			if _, err := io.ReadFull(s, buf); err != nil {
				t.Errorf("server read: %v", err)
				return
			}
		}
	}()
	buf := make([]byte, 1024)
	for i := 0; i < 100; i++ {
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("client read: %v", err)
		}
		c.Write(buf)
	}
	<-done
}

// TestAddrLazyFormatting pins the lazy-label contract: a Pipe built from
// ip.Addr endpoints formats addresses only when String is called (the grab
// fast path never calls it), and PipeLabeled labels win over addresses.
func TestAddrLazyFormatting(t *testing.T) {
	c, s := Pipe(ip.MustParseAddr("10.0.0.1"), ip.MustParseAddr("192.0.2.7"))
	defer c.Close()
	defer s.Close()
	if got := c.LocalAddr().String(); got != "10.0.0.1" {
		t.Errorf("client local = %q", got)
	}
	if got := c.RemoteAddr().String(); got != "192.0.2.7" {
		t.Errorf("client remote = %q", got)
	}
	if got := s.LocalAddr().String(); got != "192.0.2.7" {
		t.Errorf("server local = %q", got)
	}
	if got := c.LocalAddr().Network(); got != "vtcp" {
		t.Errorf("network = %q", got)
	}
	lc, ls := PipeLabeled("client", "server")
	defer lc.Close()
	defer ls.Close()
	if got := lc.RemoteAddr().String(); got != "server" {
		t.Errorf("labeled remote = %q", got)
	}
	if got := (Addr{IP: ip.MustParseAddr("10.0.0.1"), Label: "override"}).String(); got != "override" {
		t.Errorf("label should override IP, got %q", got)
	}
}
