// Command shiftrepl drives the replication subsystem (DESIGN.md §10):
// a primary publishes versioned snapshots and generation deltas into a
// store, replicas fetch, verify, and atomically swap them.
//
// Usage:
//
//	shiftrepl publish -store DIR|URL [-dataset face64] [-n 200000]
//	          [-rounds 3] [-writes 2000] [-seed 42] [-spool DIR]
//	          [-oracle 0] [-oracleseed 7]
//	shiftrepl fetch   -store DIR|URL -dir REPLICADIR [-q 8]
//	          [-watch 0s] [-fault kind[:offset[:count]]]
//	shiftrepl serve   -store DIR -addr :8421 [-drain 10s]
//
// A -store value starting with http:// or https:// selects the HTTP
// transport; anything else is a local directory. publish builds a
// primary over the dataset, publishes the base full snapshot, then
// applies -writes random writes per round and publishes each round (the
// publisher decides full vs delta). fetch opens (or warm-restarts) a
// replica over -dir, syncs with retry/backoff, prints its status, and
// answers -q sample queries from the verified index; -watch keeps
// syncing at that interval until interrupted. -fault injects a failure
// into the fetch transport to demonstrate retry and last-good
// degradation. serve exposes a directory store over HTTP for remote
// replicas on a hardened server (request timeouts, bounded headers)
// that drains gracefully on SIGINT/SIGTERM.
//
// -oracle N publishes, BEFORE each version's manifest appears, an
// oracle object with the version's reference ranks for an N-key
// deterministic query pool (seed -oracleseed), computed on the primary
// via the scan path. shiftload -verify correlates every served
// response's version tag against these oracles, so correctness is
// checkable end to end even while publishing continues mid-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/replica"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "publish":
		err = publish(os.Args[2:])
	case "fetch":
		err = fetch(os.Args[2:])
	case "serve":
		err = serveStore(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftrepl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: shiftrepl publish|fetch|serve [flags] (see -h of each)")
	os.Exit(2)
}

// openStore maps -store to a transport: http(s):// → HTTPStore, else a
// local directory (created if missing).
func openStore(spec string) (replica.Store, error) {
	if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
		return replica.HTTPStore{Base: spec}, nil
	}
	if err := os.MkdirAll(spec, 0o755); err != nil {
		return nil, err
	}
	return replica.DirStore{Dir: spec}, nil
}

func publish(args []string) error {
	fs := flag.NewFlagSet("publish", flag.ExitOnError)
	store := fs.String("store", "", "store directory or http(s) base URL (required)")
	ds := fs.String("dataset", "face64", "dataset spec for the primary")
	n := fs.Int("n", 200_000, "base key count")
	rounds := fs.Int("rounds", 3, "write+publish rounds after the base version")
	writes := fs.Int("writes", 2000, "random writes per round")
	seed := fs.Int64("seed", 42, "dataset and write seed")
	spool := fs.String("spool", "", "spool directory for staging artifacts (default: temp)")
	oracle := fs.Int("oracle", 0, "publish per-version oracles for an N-key query pool (0 = off)")
	oracleSeed := fs.Int64("oracleseed", 7, "oracle query pool seed")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("publish: -store is required")
	}

	s, err := openStore(*store)
	if err != nil {
		return err
	}
	bits := 64
	if strings.HasSuffix(*ds, "32") {
		bits = 32
	}
	name := dataset.Name(strings.TrimSuffix(strings.TrimSuffix(*ds, "64"), "32"))
	keys, err := dataset.Generate(name, bits, *n, *seed)
	if err != nil {
		return err
	}
	primary, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		return err
	}
	primary.Close() // no background compaction: the store gets one base full, then deltas

	ctx := context.Background()
	pub, err := replica.NewPublisher(ctx, s, primary, replica.PublisherConfig{Spool: *spool})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed + 1))
	top := keys[len(keys)-1] + 2
	for round := 0; round <= *rounds; round++ {
		if round > 0 {
			for w := 0; w < *writes; w++ {
				if w%4 == 0 {
					primary.Delete(keys[rng.Intn(len(keys))])
				} else {
					primary.Insert(rng.Uint64() % top)
				}
			}
		}
		start := time.Now()
		if *oracle > 0 {
			// Oracle first, then Publish: the manifest must never name a
			// version whose oracle is not already fetchable.
			pool := serve.QueryPool(*oracleSeed, *oracle, top)
			o := &serve.Oracle{
				Version: pub.Version() + 1,
				Seed:    *oracleSeed,
				Max:     top,
				Ranks:   serve.OracleRanks(primary.Published(), pool),
			}
			if err := serve.PutOracle(ctx, s, o); err != nil {
				return fmt.Errorf("publishing oracle for version %d: %w", o.Version, err)
			}
		}
		v, full, err := pub.Publish(ctx)
		if err != nil {
			return err
		}
		kind := "delta"
		if full {
			kind = "full"
		}
		m := pub.Manifest()
		e := m.Lookup(v)
		fmt.Printf("published version %d (%s, %d keys, %.1f KB) in %.1f ms\n",
			v, kind, e.Keys, float64(e.Size)/1024, float64(time.Since(start).Microseconds())/1000)
	}
	return nil
}

// parseFault reads kind[:offset[:count]], e.g. "truncate:4096" or
// "stall::3".
func parseFault(spec string) (replica.Fault, error) {
	kinds := map[string]replica.FaultKind{
		"truncate": replica.FaultTruncate, "bitflip": replica.FaultBitFlip,
		"stall": replica.FaultStall, "error": replica.FaultError,
		"notfound": replica.FaultNotFound,
	}
	parts := strings.Split(spec, ":")
	k, ok := kinds[parts[0]]
	if !ok {
		return replica.Fault{}, fmt.Errorf("unknown fault kind %q (want truncate, bitflip, stall, error, notfound)", parts[0])
	}
	f := replica.Fault{Kind: k, Count: 1, Delay: time.Hour}
	if len(parts) > 1 && parts[1] != "" {
		off, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return replica.Fault{}, fmt.Errorf("fault offset %q: %v", parts[1], err)
		}
		f.Offset = off
	}
	if len(parts) > 2 && parts[2] != "" {
		c, err := strconv.Atoi(parts[2])
		if err != nil {
			return replica.Fault{}, fmt.Errorf("fault count %q: %v", parts[2], err)
		}
		f.Count = c
	}
	return f, nil
}

func fetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	store := fs.String("store", "", "store directory or http(s) base URL (required)")
	dir := fs.String("dir", "", "local replica state directory (required)")
	q := fs.Int("q", 8, "sample queries to answer from the synced index")
	watch := fs.Duration("watch", 0, "keep syncing at this interval (0 = sync once)")
	faultSpec := fs.String("fault", "", "inject a transport fault: kind[:offset[:count]]")
	seed := fs.Int64("seed", 7, "sample query seed")
	fs.Parse(args)
	if *store == "" || *dir == "" {
		return fmt.Errorf("fetch: -store and -dir are required")
	}

	s, err := openStore(*store)
	if err != nil {
		return err
	}
	if *faultSpec != "" {
		f, err := parseFault(*faultSpec)
		if err != nil {
			return err
		}
		injected := replica.NewFaultStore(s)
		injected.Inject(f)
		s = injected
		fmt.Printf("injected %s fault at offset %d (count %d)\n", f.Kind, f.Offset, f.Count)
	}

	r, err := replica.NewReplica[uint64](s, *dir, replica.ReplicaConfig{})
	if err != nil {
		return err
	}
	defer r.Close()
	if v := r.Index().Tag(); v != 0 {
		fmt.Printf("warm restart: serving version %d from local state\n", v)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for {
		start := time.Now()
		err := r.Sync(ctx)
		st := r.Status()
		if err != nil {
			fmt.Printf("sync failed after %.1f ms: %v\n", float64(time.Since(start).Microseconds())/1000, err)
			fmt.Printf("degraded: serving last-good version %d (latest seen %d, stale=%v, failures=%d)\n",
				st.Version, st.Latest, st.Stale, st.Failures)
		} else {
			fmt.Printf("synced to version %d in %.1f ms (stale=%v)\n",
				st.Version, float64(time.Since(start).Microseconds())/1000, st.Stale)
		}
		if st.Version != 0 && *q > 0 {
			ix := r.Index()
			rng := rand.New(rand.NewSource(*seed))
			qs := make([]uint64, *q)
			for i := range qs {
				qs[i] = rng.Uint64()
			}
			ranks, tag := ix.FindBatchTagged(qs, nil)
			for i, key := range qs {
				fmt.Printf("  find(%d) = rank %d @ version %d\n", key, ranks[i], tag)
			}
			fmt.Printf("index: %s, %d keys, %.1f MB\n", ix.Name(), ix.Len(), float64(ix.SizeBytes())/(1<<20))
		}
		if *watch == 0 {
			if err != nil && st.Version == 0 {
				return fmt.Errorf("no version available to serve")
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*watch):
		}
	}
}

func serveStore(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	store := fs.String("store", "", "store directory to expose (required)")
	addr := fs.String("addr", ":8421", "listen address")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("serve: -store is required")
	}
	if err := os.MkdirAll(*store, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Hardened server, not bare ListenAndServe: slowloris/read/write
	// bounds set, and SIGINT/SIGTERM drains in-flight artifact transfers
	// for up to -drain before tearing connections down.
	srv := serve.NewHTTPServer(*addr, replica.NewHandler(replica.DirStore{Dir: *store}), serve.ServerConfig{})
	fmt.Printf("serving %s on %s\n", *store, *addr)
	err := serve.Run(ctx, srv, *drain, func() { fmt.Println("draining: signal received") })
	if err == nil {
		fmt.Println("shut down cleanly")
	}
	return err
}
