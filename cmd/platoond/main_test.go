package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serve boots the daemon on an ephemeral port and returns its address
// and a function that shuts it down with SIGTERM and waits for run to
// return cleanly.
func serve(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return addr, func() {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("sending SIGTERM: %v", err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(35 * time.Second):
			t.Fatal("server never shut down after SIGTERM")
		}
	}
}

// TestServeRunShutdown boots the daemon on an ephemeral port, runs one
// experiment twice (miss then hit), and shuts it down with SIGTERM.
func TestServeRunShutdown(t *testing.T) {
	addr, stop := serve(t, "-spill", t.TempDir())
	base := "http://" + addr

	body := `{"seed": 3, "duration_sec": 5, "attack": "replay"}`
	var first []byte
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		b, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("request %d read: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Platoond-Cache"); got != want {
			t.Errorf("request %d: X-Platoond-Cache = %q, want %q", i, got, want)
		}
		if !json.Valid(b) {
			t.Fatalf("request %d: body is not JSON: %.80s", i, b)
		}
		if i == 0 {
			first = b
		} else if string(b) != string(first) {
			t.Errorf("cache hit served different bytes than the miss")
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	//platoonvet:allow errcheck -- test teardown of a read-only response
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	stop()
}

// TestSlowClientDisconnected: a client that sends half a request header
// and stalls has its connection closed once the header timeout passes,
// with nothing written back; a well-behaved request is still served.
func TestSlowClientDisconnected(t *testing.T) {
	const timeout = 300 * time.Millisecond
	saved := readHeaderTimeout
	readHeaderTimeout = timeout
	t.Cleanup(func() { readHeaderTimeout = saved })
	addr, stop := serve(t)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	//platoonvet:allow errcheck -- test teardown of a connection the server has already closed
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/runs HTTP/1.1\r\nHost: platoond\r\nContent-Type: appl"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(10 * timeout)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("connection still open after %v: %v", elapsed, err)
	}
	if len(got) != 0 {
		t.Errorf("server answered a half-sent header with %q", got)
	}
	if elapsed < timeout {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, timeout)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz after a slow client: %v", err)
	}
	//platoonvet:allow errcheck -- test teardown of a read-only response
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after a slow client: status %d", resp.StatusCode)
	}
}

// TestBadFlag rejects unknown flags.
func TestBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, nil); err == nil {
		t.Fatal("expected a flag error")
	}
}
