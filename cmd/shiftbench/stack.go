package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/concurrent"
	"repro/internal/replica"
	"repro/internal/serve"
)

// syncEvery is shiftserver's default -watch interval.
const syncEvery = 150 * time.Millisecond

// stack is the in-process serving stack, wired as cmd/shiftserver wires
// it: primary → Publisher → DirStore → Replica (default load mode) →
// coalescing Handler → serve.NewHTTPServer on loopback.
type stack struct {
	dir     string
	primary *concurrent.Index[uint64]
	pub     *replica.Publisher[uint64]
	rep     *replica.Replica[uint64]
	co      *serve.Coalescer[uint64]
	h       *serve.Handler[uint64]
	base    string // http://host:port

	// published records each version with the state captured just
	// before its Publish; verification derives oracles from them. mu
	// guards it while the writer goroutine runs, and is held across each
	// Publish, so a version the replica can already serve is recorded by
	// the time a reader acquires mu.
	mu        sync.Mutex
	published map[uint64]*publication

	stopSrv context.CancelFunc
	srvDone chan error
}

// publication is one Publish call and what it shipped.
type publication struct {
	st         *concurrent.PublishedState[uint64]
	full       bool
	start, end time.Time
	bytes      int64
}

// startStack builds the stack over keys in a fresh dir and reports the
// time spent in the system's own set-up calls: concurrent.New,
// NewPublisher and the first Publish, NewReplica and the first Sync, and
// the listener coming up. wrap, when non-nil, wraps the handler.
func startStack(ctx context.Context, dir string, keys []uint64, wrap func(http.Handler) http.Handler) (*stack, time.Duration, error) {
	storeDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, 0, err
	}
	s := &stack{dir: dir, published: map[uint64]*publication{}}
	t0 := time.Now()
	var err error
	if s.primary, err = concurrent.New(keys, concurrent.Config{}); err != nil {
		return nil, 0, err
	}
	store := replica.DirStore{Dir: storeDir}
	if s.pub, err = replica.NewPublisher(ctx, store, s.primary, replica.PublisherConfig{Spool: dir}); err != nil {
		s.close()
		return nil, 0, err
	}
	if _, err = s.publish(ctx); err != nil {
		s.close()
		return nil, 0, err
	}
	if s.rep, err = replica.NewReplica[uint64](store, filepath.Join(dir, "replica"), replica.ReplicaConfig{}); err != nil {
		s.close()
		return nil, 0, err
	}
	if err = s.rep.Sync(ctx); err != nil {
		s.close()
		return nil, 0, err
	}
	ix := s.rep.Index()
	s.co = serve.NewCoalescer(ix, serve.CoalescerConfig{})
	s.h = serve.NewHandler(ix, s.co, serve.HandlerConfig{
		Coalesce: true,
		Ready:    func() bool { return ix.Tag() != 0 },
	}, nil)
	var h http.Handler = s.h
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s.stopSrv, s.srvDone = cancel, make(chan error, 1)
	go func() {
		s.srvDone <- serve.RunListener(sctx, serve.NewHTTPServer("", h, serve.ServerConfig{}), ln, 5*time.Second, nil)
	}()
	s.base = "http://" + ln.Addr().String()
	return s, time.Since(t0), nil
}

// publish captures the primary's state and publishes it. The caller
// serialises it with the primary's writes, so the captured state holds
// exactly what Publish ships.
func (s *stack) publish(ctx context.Context) (*publication, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &publication{st: s.primary.Published(), start: time.Now()}
	v, full, err := s.pub.Publish(ctx)
	p.end, p.full = time.Now(), full
	if err != nil {
		return nil, err
	}
	m := s.pub.Manifest()
	if e := m.Lookup(v); e != nil {
		p.bytes = e.Size
	}
	s.published[v] = p
	return p, nil
}

// publication returns what version v was published from, or nil.
func (s *stack) publication(v uint64) *publication {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.published[v]
}

// stopServer closes the listener and waits for the server to return. It
// may be called again.
func (s *stack) stopServer() error {
	if s.stopSrv == nil {
		return nil
	}
	s.stopSrv()
	s.stopSrv = nil
	if err := <-s.srvDone; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// close stops everything startStack started, waits for the server, and
// removes the stack's files. It may be called again.
func (s *stack) close() error {
	err := s.stopServer()
	if s.co != nil {
		s.co.Close()
	}
	if s.rep != nil {
		s.rep.Close()
	}
	if s.primary != nil {
		if cerr := s.primary.Err(); cerr != nil && err == nil {
			err = fmt.Errorf("compaction: %w", cerr)
		}
		s.primary.Close()
	}
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
