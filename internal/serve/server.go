package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// ServerConfig is the hardened http.Server configuration shared by
// every HTTP listener in the repository (`shiftserver`, `shiftrepl
// serve`). The zero value gets the documented defaults. A bare
// http.ListenAndServe has none of these bounds: a client that opens a
// connection and never finishes its headers (slowloris) pins a goroutine
// forever, and there is no way to drain in-flight requests on SIGTERM.
type ServerConfig struct {
	// ReadHeaderTimeout bounds how long a connection may take to send
	// its request headers (default 5s) — the slowloris guard.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading one whole request, body included
	// (default 1m).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one whole response (default 5m —
	// artifact GETs stream multi-hundred-MB snapshots).
	WriteTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle this long
	// (default 2m).
	IdleTimeout time.Duration
	// MaxHeaderBytes bounds request header size (default 1MiB).
	MaxHeaderBytes int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Minute
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 1 << 20
	}
	return c
}

// NewHTTPServer builds the hardened server: every timeout set, header
// size bounded. Run (or RunListener) adds graceful shutdown on top.
func NewHTTPServer(addr string, h http.Handler, cfg ServerConfig) *http.Server {
	cfg = cfg.withDefaults()
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
		MaxHeaderBytes:    cfg.MaxHeaderBytes,
	}
}

// Run listens on srv.Addr and serves until ctx is cancelled (wire it to
// signal.NotifyContext(SIGINT, SIGTERM) for signal-driven shutdown),
// then drains gracefully: onDrain (may be nil) flips the application to
// refuse new work with 503, and in-flight requests get up to drain to
// complete before the server is torn down. Returns nil on a clean
// drain; a drain-deadline overrun forcibly closes connections and
// reports it.
func Run(ctx context.Context, srv *http.Server, drain time.Duration, onDrain func()) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	return RunListener(ctx, srv, ln, drain, onDrain)
}

// RunListener is Run over an already-bound listener (so callers can
// report the bound address before serving, e.g. with ":0").
//
// A connection accepted but never sent a byte (http.StateNew) is closed
// when the drain begins: Shutdown would otherwise wait it out, and an
// HTTP client's pool can leave such a connection dialed and unused.
// RunListener tracks them with a ConnState hook chained in front of any
// hook srv already has.
func RunListener(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, onDrain func()) error {
	silent := trackSilent(srv)
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		// The listener died before anyone asked it to stop.
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	silent.closeAll()
	if drain <= 0 {
		drain = 10 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		<-errc
		return fmt.Errorf("serve: drain exceeded %s: %w", drain, err)
	}
	return <-errc
}

// silentConns is the set of a server's connections still in
// http.StateNew.
type silentConns struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
}

// trackSilent installs a ConnState hook on srv that keeps the set,
// calling srv's previous hook after its own bookkeeping.
func trackSilent(srv *http.Server) *silentConns {
	sc := &silentConns{conns: map[net.Conn]struct{}{}}
	prev := srv.ConnState
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		sc.mu.Lock()
		switch {
		case st != http.StateNew:
			delete(sc.conns, c)
		case sc.draining:
			// Accepted after the drain began: nothing will be served.
			c.Close()
		default:
			sc.conns[c] = struct{}{}
		}
		sc.mu.Unlock()
		if prev != nil {
			prev(c, st)
		}
	}
	return sc
}

// closeAll closes every connection still silent, and every one accepted
// from now on before it speaks.
func (sc *silentConns) closeAll() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.draining = true
	for c := range sc.conns {
		c.Close()
	}
	clear(sc.conns)
}
