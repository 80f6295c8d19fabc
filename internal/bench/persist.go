package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/router"
)

// This file is the persistence experiment (DESIGN.md §9): cold build vs
// snapshot save vs warm load, per backend, with every loaded index
// property-tested bit-identical to its cold-built twin before any number
// is reported. The question it answers is the serving one — how much
// faster does a restart get back to serving when it warm-loads a snapshot
// instead of rebuilding from raw keys?

// PersistConfig parameterises RunPersist.
type PersistConfig struct {
	// N is keys per dataset (0 = 2M).
	N int
	// Queries is the verification probe count (0 = 50k).
	Queries int
	// Seed for datasets and probes.
	Seed int64
	// Dir is where snapshot files land ("" = a fresh temp dir, removed
	// afterwards).
	Dir string
	// WriteFrac is the fraction of N applied as writes to the concurrent
	// arm before persisting (0 = 5%).
	WriteFrac float64
}

// PersistPoint is one backend's cold-vs-warm measurement.
type PersistPoint struct {
	Backend    string
	ColdMs     float64 // build from raw keys (plus writes, for the concurrent arm)
	SaveMs     float64
	LoadMs     float64 // streaming heap load
	MapMs      float64 // mapped (zero-copy) open of the same file, best of mapReps
	FileMB     float64
	Speedup    float64 // ColdMs / LoadMs
	MapSpeedup float64 // ColdMs / MapMs
	Verified   int     // probes that had to (and did) answer bit-identically
	WarmWrites int     // writes replayed during warm restart (concurrent arm)
}

// mapReps is how many times the mapped open is repeated (best-of); the
// open is O(1) and microsecond-scale, so a single sample is scheduler
// noise.
const mapReps = 3

// RunPersist measures the snapshot round trip for every persistence-
// capable layer of the stack: the registry backends that implement
// index.Persister, the hybrid router, and the concurrent index with
// pending write generations.
func RunPersist(cfg PersistConfig) ([]PersistPoint, error) {
	if cfg.N == 0 {
		cfg.N = 2_000_000
	}
	if cfg.Queries == 0 {
		cfg.Queries = 50_000
	}
	if cfg.WriteFrac == 0 {
		cfg.WriteFrac = 0.05
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "persist-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	keys, err := dataset.Generate(dataset.Face, 64, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	qs := probes(keys, cfg.Queries, cfg.Seed+1)
	var out []PersistPoint

	// Registry backends with the Persister capability.
	for _, name := range []string{"IM", "IM+ST", "RS+ST"} {
		pt, err := persistRegistry(name, keys, qs, filepath.Join(dir, name+".snap"))
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		out = append(out, pt)
	}

	// Hybrid router over a piecewise key space (its natural habitat; the
	// expensive cold phase is the per-shard candidate evaluation).
	pw := dataset.Piecewise(cfg.N, cfg.Seed)
	pt, err := persistRouter(pw, probes(pw, cfg.Queries, cfg.Seed+2), filepath.Join(dir, "router.snap"))
	if err != nil {
		return nil, fmt.Errorf("bench: router: %w", err)
	}
	out = append(out, pt)

	writes := int(float64(cfg.N) * cfg.WriteFrac)
	pt, err = persistConcurrent(keys, qs, writes, filepath.Join(dir, "concurrent.snap"))
	if err != nil {
		return nil, fmt.Errorf("bench: concurrent: %w", err)
	}
	out = append(out, pt)
	return out, nil
}

// probes mixes hits and near-misses.
func probes[K kv.Key](keys []K, n int, seed int64) []K {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]K, n)
	for i := range qs {
		if i%2 == 0 {
			qs[i] = keys[rng.Intn(len(keys))]
		} else {
			qs[i] = K(rng.Uint64()) % (keys[len(keys)-1] + 2)
		}
	}
	return qs
}

func persistRegistry(name string, keys, qs []uint64, path string) (PersistPoint, error) {
	start := time.Now()
	cold, err := index.Build(name, keys)
	if err != nil {
		return PersistPoint{}, err
	}
	coldMs := msSince(start)

	start = time.Now()
	if err := index.SaveFile[uint64](path, cold); err != nil {
		return PersistPoint{}, err
	}
	saveMs := msSince(start)

	start = time.Now()
	warm, err := index.LoadFile[uint64](path)
	if err != nil {
		return PersistPoint{}, err
	}
	loadMs := msSince(start)

	var mapped index.Index[uint64]
	mapMs, err := bestOf(mapReps, func() error {
		var merr error
		var viaMap bool
		mapped, viaMap, merr = index.LoadFileMapped[uint64](path)
		if merr == nil && !viaMap {
			return fmt.Errorf("v2 snapshot %s did not open mapped", path)
		}
		return merr
	})
	if err != nil {
		return PersistPoint{}, err
	}

	for _, q := range qs {
		w := cold.Find(q)
		if g := warm.Find(q); g != w {
			return PersistPoint{}, fmt.Errorf("warm Find(%d) = %d, cold %d", q, g, w)
		}
		if g := mapped.Find(q); g != w {
			return PersistPoint{}, fmt.Errorf("mapped Find(%d) = %d, cold %d", q, g, w)
		}
	}
	return point(name, coldMs, saveMs, loadMs, mapMs, path, len(qs), 0)
}

// bestOf runs f reps times and returns the fastest wall-clock ms.
func bestOf(reps int, f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if ms := msSince(start); i == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

func persistRouter(keys, qs []uint64, path string) (PersistPoint, error) {
	start := time.Now()
	cold, err := router.New(keys, router.Config{})
	if err != nil {
		return PersistPoint{}, err
	}
	coldMs := msSince(start)

	start = time.Now()
	if err := index.SaveFile[uint64](path, cold); err != nil {
		return PersistPoint{}, err
	}
	saveMs := msSince(start)

	start = time.Now()
	warm, err := index.LoadFile[uint64](path)
	if err != nil {
		return PersistPoint{}, err
	}
	loadMs := msSince(start)

	var mapped index.Index[uint64]
	mapMs, err := bestOf(mapReps, func() error {
		var merr error
		var viaMap bool
		mapped, viaMap, merr = index.LoadFileMapped[uint64](path)
		if merr == nil && !viaMap {
			return fmt.Errorf("v2 snapshot %s did not open mapped", path)
		}
		return merr
	})
	if err != nil {
		return PersistPoint{}, err
	}

	for _, q := range qs {
		w := cold.Find(q)
		if g := warm.Find(q); g != w {
			return PersistPoint{}, fmt.Errorf("warm Find(%d) = %d, cold %d", q, g, w)
		}
		if g := mapped.Find(q); g != w {
			return PersistPoint{}, fmt.Errorf("mapped Find(%d) = %d, cold %d", q, g, w)
		}
	}
	return point("router", coldMs, saveMs, loadMs, mapMs, path, len(qs), 0)
}

func persistConcurrent(keys, qs []uint64, writes int, path string) (PersistPoint, error) {
	start := time.Now()
	cold, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		return PersistPoint{}, err
	}
	cold.Close() // no background compaction: explicit Compact calls only
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < writes; i++ {
		if i%3 == 0 {
			cold.Delete(keys[rng.Intn(len(keys))])
		} else {
			cold.Insert(rng.Uint64() % (keys[len(keys)-1] + 2))
		}
	}
	coldMs := msSince(start)
	replayed := cold.Pending()

	start = time.Now()
	if err := concurrent.SaveFile(path, cold); err != nil {
		return PersistPoint{}, err
	}
	saveMs := msSince(start)

	start = time.Now()
	warm, err := concurrent.LoadFile[uint64](path)
	if err != nil {
		return PersistPoint{}, err
	}
	loadMs := msSince(start)
	defer warm.Close()

	var mapped *concurrent.Index[uint64]
	mapMs, err := bestOf(mapReps, func() error {
		if mapped != nil {
			mapped.Close()
		}
		var merr error
		var viaMap bool
		mapped, viaMap, merr = concurrent.MapFile[uint64](path)
		if merr == nil && !viaMap {
			return fmt.Errorf("v2 snapshot %s did not open mapped", path)
		}
		return merr
	})
	if err != nil {
		return PersistPoint{}, err
	}
	defer mapped.Close()

	for _, q := range qs {
		w := cold.Find(q)
		if g := warm.Find(q); g != w {
			return PersistPoint{}, fmt.Errorf("warm Find(%d) = %d, cold %d", q, g, w)
		}
		if g := mapped.Find(q); g != w {
			return PersistPoint{}, fmt.Errorf("mapped Find(%d) = %d, cold %d", q, g, w)
		}
	}
	return point("concurrent", coldMs, saveMs, loadMs, mapMs, path, len(qs), replayed)
}

func point(name string, coldMs, saveMs, loadMs, mapMs float64, path string, verified, warmWrites int) (PersistPoint, error) {
	st, err := os.Stat(path)
	if err != nil {
		return PersistPoint{}, err
	}
	return PersistPoint{
		Backend:    name,
		ColdMs:     coldMs,
		SaveMs:     saveMs,
		LoadMs:     loadMs,
		MapMs:      mapMs,
		FileMB:     float64(st.Size()) / (1 << 20),
		Speedup:    coldMs / loadMs,
		MapSpeedup: coldMs / mapMs,
		Verified:   verified,
		WarmWrites: warmWrites,
	}, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// PersistGrid renders the sweep through the shared emitter.
func PersistGrid(pts []PersistPoint) *Grid {
	g := NewGrid("backend", "cold_build_ms", "save_ms", "warm_load_ms", "map_load_ms", "file_mb", "warm_speedup", "map_speedup", "verified_probes", "replayed_writes")
	verbs := []string{"%s", "%.1f", "%.1f", "%.1f", "%.3f", "%.2f", "%.2f", "%.2f", "%d", "%d"}
	for _, p := range pts {
		g.Rowf(verbs, p.Backend, p.ColdMs, p.SaveMs, p.LoadMs, p.MapMs, p.FileMB, p.Speedup, p.MapSpeedup, p.Verified, p.WarmWrites)
	}
	return g
}
