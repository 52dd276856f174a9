package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestStalledHeaderDisconnected: a client that stops mid-header is cut
// off once readHeaderTimeout passes, instead of pinning a goroutine.
func TestStalledHeaderDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.NotFoundHandler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	defer func() {
		if err := shutdown(srv, errCh); err != nil {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// Never finish the header block; wait for the server to give up.
	const slack = 3 * time.Second
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a stalled header (bound %v)", elapsed, readHeaderTimeout)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v bound", elapsed, readHeaderTimeout)
	}
}
