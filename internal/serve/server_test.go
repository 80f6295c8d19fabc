package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestNewHTTPServerHardened: the zero config still yields a server with
// every protective bound set — the whole point over bare
// http.ListenAndServe.
func TestNewHTTPServerHardened(t *testing.T) {
	srv := NewHTTPServer(":0", http.NotFoundHandler(), ServerConfig{})
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset (slowloris guard missing)")
	}
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("timeouts unset: read %v write %v idle %v",
			srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes <= 0 {
		t.Error("MaxHeaderBytes unset")
	}
}

// TestRunListenerGracefulDrain: cancelling the run context must (1) fire
// onDrain, (2) let the in-flight request finish and reach the client
// intact, (3) return nil, and (4) stop accepting new connections.
func TestRunListenerGracefulDrain(t *testing.T) {
	var drained atomic.Bool
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(250 * time.Millisecond)
		io.WriteString(w, "done")
	})
	srv := NewHTTPServer("", slow, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, srv, ln, 5*time.Second, func() { drained.Store(true) }) }()

	// In-flight request racing the shutdown.
	resp := make(chan string, 1)
	reqErr := make(chan error, 1)
	go func() {
		r, err := http.Get("http://" + addr + "/")
		if err != nil {
			reqErr <- err
			return
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		resp <- string(b)
	}()

	time.Sleep(50 * time.Millisecond) // request is in the handler's sleep
	cancel()

	select {
	case body := <-resp:
		if body != "done" {
			t.Fatalf("in-flight response = %q, want %q", body, "done")
		}
	case err := <-reqErr:
		t.Fatalf("in-flight request killed by shutdown: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunListener = %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener never returned")
	}
	if !drained.Load() {
		t.Error("onDrain never called")
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestRunListenerDrainDeadline: a handler that outlives the drain window
// forces a hard close and a reported error.
func TestRunListenerDrainDeadline(t *testing.T) {
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	})
	srv := NewHTTPServer("", stuck, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, srv, ln, 100*time.Millisecond, nil) }()

	go func() {
		r, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			r.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("RunListener = nil, want drain-deadline error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener never returned after deadline overrun")
	}
}

// TestRunListenerDrainSilentConn: a connection that was accepted but never
// sent a byte (as an HTTP client's pool can leave one) must not hold the
// drain for its whole budget, and a ConnState hook the caller set still
// sees every transition.
func TestRunListenerDrainSilentConn(t *testing.T) {
	srv := NewHTTPServer("", http.NotFoundHandler(), ServerConfig{})
	accepted := make(chan struct{}, 1)
	srv.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			select {
			case accepted <- struct{}{}:
			default:
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, srv, ln, 5*time.Second, nil) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the connection")
	}
	start := time.Now()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunListener = %v, want nil", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("drain took %v with one silent connection open, want under 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("drain still waiting on a silent connection after 1s")
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("silent connection still open after drain")
	}
}
