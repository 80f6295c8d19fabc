package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/replica"
)

// This file is the replication experiment (DESIGN.md §10): how fast does
// a published version become servable on a replica, how much smaller are
// generation deltas than full snapshots, and how fast does a crashed
// replica get back to serving from its local last-good state? Every
// measured sync is verified: a sample of queries is answered by the
// replica and checked against an oracle over the primary's published
// state before the round's numbers are reported.

// ReplicationConfig parameterises RunReplication.
type ReplicationConfig struct {
	// N is the base key count (0 = 1M).
	N int
	// Rounds is how many versions to publish after the base (0 = 8).
	Rounds int
	// Queries is the per-round verification sample (0 = 2000).
	Queries int
	// WriteFrac is the fraction of N written between versions (0 = 1%).
	WriteFrac float64
	// FullEvery forces a compaction (and hence a full snapshot) every
	// this many rounds (0 = 4).
	FullEvery int
	// Seed for the dataset, writes and probes.
	Seed int64
	// Dir hosts the store and replica dirs ("" = fresh temp, removed).
	Dir string
}

// ReplicationPoint is one published version as seen from the replica.
type ReplicationPoint struct {
	Version    uint64  `json:"version"`
	Kind       string  `json:"kind"` // "full" or "delta"
	PublishMs  float64 `json:"publish_ms"`
	ArtifactKB float64 `json:"artifact_kb"`
	SyncMs     float64 `json:"sync_ms"` // manifest discovery → verified swap
	Keys       int     `json:"keys"`
	Verified   int     `json:"verified_queries"`
}

// ReplicationResult is the whole experiment, in the BENCH_replica.json
// shape the CI smoke and EXPERIMENTS.md reference.
type ReplicationResult struct {
	N             int                `json:"n"`
	Rounds        int                `json:"rounds"`
	GoMaxProcs    int                `json:"gomaxprocs"`
	Points        []ReplicationPoint `json:"points"`
	FullKB        float64            `json:"full_kb"`         // mean full artifact size
	DeltaKB       float64            `json:"delta_kb"`        // mean delta artifact size
	ColdSyncMs    float64            `json:"cold_sync_ms"`    // fresh dir: full fetch + install
	WarmRestartMs float64            `json:"warm_restart_ms"` // crash + reopen from local state, no network
	WarmVersion   uint64             `json:"warm_version"`    // version served right after warm restart
}

// RunReplication publishes a stream of versions through a local store and
// measures the replica's time-to-fresh per version, then crash-restarts
// the replica and measures how fast the local last-good state is back.
func RunReplication(cfg ReplicationConfig) (*ReplicationResult, error) {
	if cfg.N == 0 {
		cfg.N = 1_000_000
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 8
	}
	if cfg.Queries == 0 {
		cfg.Queries = 2000
	}
	if cfg.WriteFrac == 0 {
		cfg.WriteFrac = 0.01
	}
	if cfg.FullEvery == 0 {
		cfg.FullEvery = 4
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "replica-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	storeDir, replicaDir := dir+"/store", dir+"/replica"
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}

	ctx := context.Background()
	keys, err := dataset.Generate(dataset.Face, 64, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	primary, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		return nil, err
	}
	primary.Close() // no background compaction: explicit Compact calls only
	store := replica.DirStore{Dir: storeDir}
	pub, err := replica.NewPublisher(ctx, store, primary, replica.PublisherConfig{Spool: dir})
	if err != nil {
		return nil, err
	}
	r, err := replica.NewReplica[uint64](store, replicaDir, replica.ReplicaConfig{})
	if err != nil {
		return nil, err
	}

	res := &ReplicationResult{N: cfg.N, Rounds: cfg.Rounds, GoMaxProcs: runtime.GOMAXPROCS(0)}
	qs := probes(keys, cfg.Queries, cfg.Seed+1)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	writes := int(float64(cfg.N) * cfg.WriteFrac)
	var fullKB, deltaKB []float64

	round := func(i int) (ReplicationPoint, error) {
		if i > 0 {
			for w := 0; w < writes; w++ {
				if w%4 == 0 {
					primary.Delete(keys[rng.Intn(len(keys))])
				} else {
					primary.Insert(rng.Uint64() % (keys[len(keys)-1] + 2))
				}
			}
			if i%cfg.FullEvery == 0 {
				if err := primary.Compact(); err != nil {
					return ReplicationPoint{}, err
				}
			}
		}
		st := primary.Published()
		want := oracleRanks(st, qs)

		start := time.Now()
		v, full, err := pub.Publish(ctx)
		if err != nil {
			return ReplicationPoint{}, err
		}
		publishMs := msSince(start)

		start = time.Now()
		if err := r.Sync(ctx); err != nil {
			return ReplicationPoint{}, err
		}
		syncMs := msSince(start)

		got, tag := r.Index().FindBatchTagged(qs, nil)
		if tag != v {
			return ReplicationPoint{}, fmt.Errorf("replica at version %d after syncing %d", tag, v)
		}
		for j := range qs {
			if got[j] != want[j] {
				return ReplicationPoint{}, fmt.Errorf("version %d: Find(%d) = %d, oracle %d", v, qs[j], got[j], want[j])
			}
		}

		m := pub.Manifest()
		e := m.Lookup(v)
		if e == nil {
			return ReplicationPoint{}, fmt.Errorf("published version %d missing from manifest", v)
		}
		kb := float64(e.Size) / 1024
		kind := "delta"
		if full {
			kind = "full"
			fullKB = append(fullKB, kb)
		} else {
			deltaKB = append(deltaKB, kb)
		}
		return ReplicationPoint{
			Version: v, Kind: kind, PublishMs: publishMs, ArtifactKB: kb,
			SyncMs: syncMs, Keys: st.Len(), Verified: len(qs),
		}, nil
	}

	for i := 0; i <= cfg.Rounds; i++ {
		pt, err := round(i)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	final := res.Points[len(res.Points)-1].Version
	finalWant := oracleRanks(primary.Published(), qs)

	// Cold restart: a brand-new replica dir has to fetch the latest full
	// (plus any deltas) over the wire.
	start := time.Now()
	cold, err := replica.NewReplica[uint64](store, dir+"/cold", replica.ReplicaConfig{})
	if err != nil {
		return nil, err
	}
	if err := cold.Sync(ctx); err != nil {
		return nil, err
	}
	res.ColdSyncMs = msSince(start)
	cold.Close()

	// Crash + warm restart: drop the replica without ceremony (a SIGKILL
	// leaves exactly this on disk) and reopen over the same dir. The
	// last-good state must be serving — verified — before any network.
	r.Close()
	start = time.Now()
	warm, err := replica.NewReplica[uint64](replica.RefuseStore{}, replicaDir, replica.ReplicaConfig{})
	if err != nil {
		return nil, err
	}
	res.WarmRestartMs = msSince(start)
	defer warm.Close()
	got, tag := warm.Index().FindBatchTagged(qs, nil)
	if tag != final {
		return nil, fmt.Errorf("warm restart served version %d, want %d", tag, final)
	}
	for j := range qs {
		if got[j] != finalWant[j] {
			return nil, fmt.Errorf("warm restart: Find(%d) = %d, oracle %d", qs[j], got[j], finalWant[j])
		}
	}
	res.WarmVersion = tag

	res.FullKB = mean(fullKB)
	res.DeltaKB = mean(deltaKB)
	return res, nil
}

// oracleRanks answers qs over the published state's live key set by
// brute force — the ground truth every replica answer is checked against.
func oracleRanks(st *concurrent.PublishedState[uint64], qs []uint64) []int {
	live := make([]uint64, 0, st.Len())
	st.Scan(0, ^uint64(0), func(k uint64) bool {
		live = append(live, k)
		return true
	})
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = kv.LowerBound(live, q)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Grid renders the per-version table plus summary rows.
func (r *ReplicationResult) Grid() *Grid {
	g := NewGrid("version", "kind", "publish_ms", "artifact_kb", "sync_ms", "keys", "verified_queries")
	verbs := []string{"%d", "%s", "%.1f", "%.1f", "%.1f", "%d", "%d"}
	for _, p := range r.Points {
		g.Rowf(verbs, p.Version, p.Kind, p.PublishMs, p.ArtifactKB, p.SyncMs, p.Keys, p.Verified)
	}
	return g
}

// WriteJSON emits the result in the BENCH_replica.json shape.
func (r *ReplicationResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
