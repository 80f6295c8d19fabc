// Command shiftserver is the networked query tier (DESIGN.md §11): it
// serves HTTP/JSON point lookups, ranges, and batches off a lock-free
// replica of a published index, coalescing concurrently-arriving single
// lookups into batched FindBatchTagged waves (one atomic snapshot load
// per wave), while a background loop keeps the replica synced to the
// primary's store. Admission is bounded (typed 429/503) and SIGTERM
// drains gracefully.
//
// Usage:
//
//	shiftserver -store DIR|URL -dir REPLICADIR [-addr :8422]
//	            [-watch 150ms] [-mode coalesce|direct] [-wave 256]
//	            [-queue 1024] [-inflight 256] [-drain 10s]
//	            [-admin] [-wait-ready=true]
//	shiftserver -fleet URL1,URL2,... [-addr :8421] [-probe 100ms]
//
// The server refuses to start until a first version is installed (or
// warm-restarted from -dir), so it never serves an empty index. Fetched
// full artifacts serve mapped in place where the platform maps files
// (linux, darwin) and from a verified heap read elsewhere; /statusz
// reports which. Every response carries the snapshot version tag that
// produced it, which shiftload -verify correlates against the
// per-version oracles the publisher wrote (shiftrepl publish -oracle).
//
// With -wait-ready=false the server listens immediately and reports
// "starting" on /healthz until the first version installs — the shape a
// fleet-managed backend wants, where the front tier routes around a
// member that is still warming. -admin enables POST /admin/drain and
// /admin/undrain, the levers an operator rolls a fleet with.
//
// With -fleet, the binary is instead the front tier (internal/fleet):
// it health-checks the listed backends, proxies /v1/* around draining
// or dead ones with transparent failover, and exposes the fleet-level
// /healthz and /statusz.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/replica"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shiftserver:", err)
		os.Exit(1)
	}
}

func run() error {
	store := flag.String("store", "", "artifact store: directory or http(s) base URL (required)")
	dir := flag.String("dir", "", "local replica state directory (required)")
	addr := flag.String("addr", ":8422", "listen address (use :0 for an ephemeral port)")
	watch := flag.Duration("watch", 150*time.Millisecond, "replica sync interval")
	mode := flag.String("mode", "coalesce", "serving mode: coalesce (wave-batched) or direct (per-request)")
	wave := flag.Int("wave", serve.DefaultWave, "max queries per coalesced wave")
	queue := flag.Int("queue", 0, "coalescer admission queue bound (0 = 4x wave)")
	inflight := flag.Int("inflight", 256, "max concurrent uncoalesced requests")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline")
	admin := flag.Bool("admin", false, "enable POST /admin/drain and /admin/undrain")
	waitReady := flag.Bool("wait-ready", true, "block until a first version installs before listening (false: listen immediately, /healthz reports starting)")
	fleetURLs := flag.String("fleet", "", "run as the fleet front tier over these comma-separated backend URLs instead of serving a replica")
	probe := flag.Duration("probe", 100*time.Millisecond, "with -fleet: backend health-check interval")
	flag.Parse()
	if *fleetURLs != "" {
		return runFleet(*fleetURLs, *addr, *probe, *drain)
	}
	if *store == "" || *dir == "" {
		return fmt.Errorf("-store and -dir are required")
	}
	coalesce := false
	switch *mode {
	case "coalesce":
		coalesce = true
	case "direct":
	default:
		return fmt.Errorf("-mode %q: want coalesce or direct", *mode)
	}

	s, err := openStore(*store)
	if err != nil {
		return err
	}
	r, err := replica.NewReplica[uint64](s, *dir, replica.ReplicaConfig{})
	if err != nil {
		return err
	}
	defer r.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *waitReady {
		// Never serve an empty index: sync until a first version installs
		// (warm restart counts), surfacing degradation while we wait.
		for r.Index().Tag() == 0 {
			if err := r.Sync(ctx); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				fmt.Fprintf(os.Stderr, "shiftserver: waiting for first version: %v\n", err)
				select {
				case <-time.After(*watch):
				case <-ctx.Done():
					return ctx.Err()
				}
				continue
			}
		}
	} else if err := r.Sync(ctx); err != nil && ctx.Err() == nil {
		// One opportunistic sync so an already-published store serves
		// from the first request; otherwise the background loop brings
		// the first version in while /healthz reports "starting" and the
		// fleet routes around us.
		fmt.Fprintf(os.Stderr, "shiftserver: starting before first version: %v\n", err)
	}
	if r.Index().Tag() != 0 {
		st := r.Status()
		serving := "heap"
		if st.Mapped {
			serving = fmt.Sprintf("mapped, %d bytes", st.MappedBytes)
		}
		fmt.Printf("serving version %d (%d keys, %s, %s)\n", st.Version, r.Index().Len(), r.Index().Name(), serving)
	}

	// Background sync keeps the serving snapshots fresh; failures degrade
	// to last-good (the replica's contract), so the serving path never
	// blocks on the store.
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(*watch):
			}
			if err := r.Sync(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "shiftserver: sync: %v (serving last-good %d)\n", err, r.Status().Version)
			}
		}
	}()

	var co *serve.Coalescer[uint64]
	if coalesce {
		co = serve.NewCoalescer(r.Index(), serve.CoalescerConfig{
			MaxWave: *wave, Queue: *queue,
		})
	}
	h := serve.NewHandler(r.Index(), co, serve.HandlerConfig{
		Coalesce: coalesce, MaxInflight: *inflight,
		Admin: *admin,
		Ready: func() bool { return r.Index().Tag() != 0 },
	}, func() map[string]any {
		st := r.Status()
		m := map[string]any{
			"replica_version": st.Version,
			"replica_latest":  st.Latest,
			"replica_stale":   st.Stale,
			"sync_failures":   st.Failures,
		}
		if st.LastErr != nil {
			m["sync_last_error"] = st.LastErr.Error()
		}
		return m
	})

	srv := serve.NewHTTPServer(*addr, h, serve.ServerConfig{})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Bound address on its own line so harnesses using :0 can scrape it.
	fmt.Printf("listening on %s (mode %s)\n", ln.Addr(), *mode)
	err = serve.RunListener(ctx, srv, ln, *drain, func() {
		fmt.Println("draining: refusing new work, finishing in-flight requests")
		h.SetDraining(true)
	})
	<-syncDone
	if co != nil {
		co.Close() // answer any admitted stragglers before exit
	}
	if err == nil {
		fmt.Printf("shut down cleanly: served %d, rejected %d\n", h.Served(), h.Rejected())
	}
	return err
}

// runFleet serves the front tier: health-check the backends, proxy
// /v1/* around draining or dead ones. The pool is an http.Handler, so
// the serving scaffolding (timeouts, graceful drain) is shared with the
// replica mode.
func runFleet(urls, addr string, probe, drain time.Duration) error {
	var backends []string
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			backends = append(backends, u)
		}
	}
	p, err := fleet.NewPool(backends, fleet.PoolConfig{Probe: probe})
	if err != nil {
		return err
	}
	defer p.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.NewHTTPServer(addr, p, serve.ServerConfig{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s (fleet over %d backends)\n", ln.Addr(), len(backends))
	err = serve.RunListener(ctx, srv, ln, drain, func() {
		fmt.Println("draining: finishing in-flight proxied requests")
	})
	if err == nil {
		fmt.Printf("shut down cleanly: proxied %d, retries %d, failures %d\n", p.Proxied(), p.Retries(), p.Failures())
	}
	return err
}

func openStore(spec string) (replica.Store, error) {
	if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
		return replica.HTTPStore{Base: spec}, nil
	}
	if err := os.MkdirAll(spec, 0o755); err != nil {
		return nil, err
	}
	return replica.DirStore{Dir: spec}, nil
}
