// Package concurrent is the updatable Shift-Table index — the paper's §6
// future-work direction — served goroutine-safe: lock-free snapshot
// reads, mutex-serialised writes, and asynchronous background compaction.
// It is the one write path: every pending insert and delete lives in its
// write generations, over an immutable base (internal/updatable) that
// only compaction replaces.
//
// The ROADMAP's north star is a system sitting behind a server, where the
// paper's central claim — model-corrected lookups stay fast under drift —
// only matters if reads keep flowing while corrections accumulate and the
// base table is rebuilt. The design here is the classic read/write
// decoupling (stable state vs pending updates):
//
//   - Reads (Find, Lookup, Scan, FindBatch) load an immutable snapshot
//     through an atomic.Pointer and never block, never take a lock, and
//     never observe a torn state. A snapshot is an immutable
//     updatable.View plus immutable write generations (snapshot.go).
//   - Writes (Insert, Delete) serialise through a mutex, build a successor
//     snapshot with a fresh copy of the small write head, and publish it
//     with a single pointer store. A full head is merged into the one
//     sealed run below it: O(maxHeadLen) per write plus one O(pending)
//     merge per maxHeadLen writes, pending bounded by the compaction
//     rule.
//   - A background compactor, nudged by writes once pending writes reach
//     1/64 of the live keys (due, compact.go; Close turns it off),
//     rebuilds the base Shift-Table + CDF model off to the side: it seals
//     the write head, opens a fresh one for writes that land mid-rebuild,
//     merges the sealed state into a new base, and publishes the result
//     with one pointer swap — the fresh head survives the swap, which is
//     exactly the write replay.
//
// Old snapshots are reclaimed by the garbage collector once the last
// reader drops its reference; there is no epoch machinery to get wrong.
// See DESIGN.md §6 for the full lifecycle.
package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/updatable"
)

// Config parameterises New.
type Config struct {
	// Layer configures the base Shift-Table rebuilt at each compaction
	// (§3 defaults apply).
	Layer core.Config
}

// Index is a goroutine-safe updatable Shift-Table index. Any number of
// readers may call the read methods concurrently with each other, with
// writers, and with an in-flight compaction.
type Index[K kv.Key] struct {
	// layer is the base Shift-Table geometry compaction rebuilds with. It
	// is behind an atomic pointer because replication replaces it:
	// InstallState adopts the incoming snapshot's configuration while
	// persistence and the compactor may be reading the old one lock-free.
	layer atomic.Pointer[core.Config]
	snap  atomic.Pointer[snapshot[K]]

	mu sync.Mutex // serialises writers and snapshot publication
	// pinned counts the bottom generations an in-flight compaction sealed;
	// sealHead never merges into them (guarded by mu, zero when idle).
	pinned int

	compactMu  sync.Mutex // at most one compaction at a time
	compacting atomic.Bool
	rebuilds   atomic.Int64

	wake chan struct{}
	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup

	errMu sync.Mutex
	err   error // first background compaction failure, if any

	// testHookRebuild, when a test sets it before any compaction starts,
	// runs at the start of Compact's rebuild phase (writes can then land
	// at a chosen point mid-rebuild).
	testHookRebuild func()
}

// New builds a concurrent index over sorted initial keys (which may be
// empty) and starts its background compactor. Call Close to stop it; an
// index closed right after New compacts only on explicit Compact calls.
func New[K kv.Key](keys []K, cfg Config) (*Index[K], error) {
	base, err := updatable.New(keys, updatable.Config{Layer: cfg.Layer})
	if err != nil {
		return nil, err
	}
	return start(base.View(), cfg.Layer, []*generation[K]{{}}), nil
}

// start publishes the first snapshot — view under gens, whose top is the
// write head — and starts the background compactor.
//
//shift:swap(constructor: publishes the first snapshot before the index escapes)
func start[K kv.Key](view *updatable.View[K], layer core.Config, gens []*generation[K]) *Index[K] {
	ix := &Index[K]{
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	ix.layer.Store(&layer)
	ix.snap.Store(&snapshot[K]{view: view, gens: gens})
	ix.wg.Add(1)
	go ix.compactor()
	return ix
}

// layerCfg returns the base-layer geometry current compactions rebuild
// with (replication may replace it; see InstallState).
func (ix *Index[K]) layerCfg() core.Config { return *ix.layer.Load() }

// Close stops the background compactor. Reads and writes remain valid
// after Close (writes simply stop triggering automatic compaction).
// Close is idempotent.
func (ix *Index[K]) Close() {
	ix.stop.Do(func() { close(ix.done) })
	ix.wg.Wait()
}

// Len returns the number of live keys.
func (ix *Index[K]) Len() int { return ix.snap.Load().length() }

// Name identifies the backend in benchmark output (index.Index contract).
func (ix *Index[K]) Name() string {
	return "concurrent(" + ix.snap.Load().view.Table().Name() + ")"
}

// SizeBytes reports the auxiliary footprint beyond the key data
// (index.Index contract): the view's footprint plus the pending write
// generations and their directories.
func (ix *Index[K]) SizeBytes() int {
	s := ix.snap.Load()
	n := s.view.SizeBytes()
	for _, g := range s.gens {
		n += g.size()*kv.Width[K]() + 4*len(g.dir.off)
	}
	return n
}

// Pending returns the number of write operations not yet compacted into
// the base (observability; the compaction rule acts on it).
func (ix *Index[K]) Pending() int { return ix.snap.Load().pending() }

// Rebuilds returns how many compactions have completed.
func (ix *Index[K]) Rebuilds() int { return int(ix.rebuilds.Load()) }

// Compacting reports whether a base rebuild is currently in flight.
func (ix *Index[K]) Compacting() bool { return ix.compacting.Load() }

// Err returns the first background compaction error, if any.
func (ix *Index[K]) Err() error {
	ix.errMu.Lock()
	defer ix.errMu.Unlock()
	return ix.err
}

// Find returns the logical lower-bound rank of q among live keys: the
// number of live keys < q. Lock-free; the whole query answers against one
// snapshot.
//
//shift:lockfree
func (ix *Index[K]) Find(q K) int {
	return ix.snap.Load().rank(q)
}

// Lookup reports whether q is a live key and its logical rank, both
// against one snapshot and with a single base-table probe.
//
//shift:lockfree
func (ix *Index[K]) Lookup(q K) (rank int, found bool) {
	rank, count := ix.snap.Load().lookup(q)
	return rank, count > 0
}

// FindBatch answers Find for every query in qs against one snapshot,
// writing result i into out[i] and returning the result slice (out when it
// has capacity). The base probes run through the staged
// core.Table.FindBatch pipeline of the base view; the generation
// corrections search each sorted run for all lanes in lockstep.
//
//shift:lockfree
func (ix *Index[K]) FindBatch(qs []K, out []int) []int {
	out, _ = ix.FindBatchTagged(qs, out)
	return out
}

// FindBatchTagged is FindBatch plus the snapshot's install tag: every
// result in the batch is answered by one snapshot, and the returned tag is
// that snapshot's (InstallState/InstallDelta set it to the replicated
// version). This lets a replica reader learn which published version
// answered the whole batch with no lock and no tag/results race.
//
//shift:lockfree
func (ix *Index[K]) FindBatchTagged(qs []K, out []int) ([]int, uint64) {
	s := ix.snap.Load()
	out = s.view.FindBatch(qs, out)
	s.genRankBatch(qs, out)
	return out, s.tag
}

// FindTagged is Find plus the install tag of the snapshot that answered:
// the one-query FindBatchTagged without the batch pipeline's set-up.
//
//shift:lockfree
func (ix *Index[K]) FindTagged(q K) (rank int, tag uint64) {
	s := ix.snap.Load()
	return s.rank(q), s.tag
}

// Tag returns the install tag of the current published snapshot (zero if
// no replicated state was ever installed).
//
//shift:lockfree
func (ix *Index[K]) Tag() uint64 { return ix.snap.Load().tag }

// Scan calls fn for every live key in [a, b] in sorted order, all from one
// snapshot; fn returning false stops the scan.
//
//shift:lockfree
func (ix *Index[K]) Scan(a, b K, fn func(k K) bool) {
	ix.snap.Load().scan(a, b, fn)
}

// Insert adds k (duplicates allowed) and publishes the successor
// snapshot. O(maxHeadLen) for the write-head copy, plus an O(pending)
// merge when the head seals.
//
//shift:swap(writer publication under ix.mu)
func (ix *Index[K]) Insert(k K) {
	ix.mu.Lock()
	s := ix.snap.Load()
	top := s.gens[len(s.gens)-1]
	var next *snapshot[K]
	if top.size() >= maxHeadLen {
		next = s.sealHead(ix.pinned, (&generation[K]{}).withInsert(k))
	} else {
		next = s.replaceTop(top.withInsert(k))
	}
	ix.snap.Store(next)
	ix.mu.Unlock()
	ix.maybeWake(next)
}

// Delete removes one live occurrence of k, reporting whether one existed.
// A pending insert in the write head is removed directly; anything older
// (sealed run or base) gets a tombstone in the write head, cancelled by
// value at the next compaction.
//
//shift:swap(writer publication under ix.mu)
func (ix *Index[K]) Delete(k K) bool {
	ix.mu.Lock()
	s := ix.snap.Load()
	top := s.gens[len(s.gens)-1]
	var next *snapshot[K]
	if i := kv.LowerBound(top.ins, k); i < len(top.ins) && top.ins[i] == k {
		next = s.replaceTop(top.withoutIns(i))
	} else if s.count(k) > 0 {
		if top.size() >= maxHeadLen {
			next = s.sealHead(ix.pinned, (&generation[K]{}).withDelete(k))
		} else {
			next = s.replaceTop(top.withDelete(k))
		}
	} else {
		ix.mu.Unlock()
		return false
	}
	ix.snap.Store(next)
	ix.mu.Unlock()
	ix.maybeWake(next)
	return true
}

// maybeWake nudges the compactor when the published snapshot is due.
// Non-blocking: a pending nudge is enough.
func (ix *Index[K]) maybeWake(s *snapshot[K]) {
	if !due(s.pending(), s.length()) {
		return
	}
	select {
	case ix.wake <- struct{}{}:
	default:
	}
}

// Stats summarises the index composition.
type Stats struct {
	Live       int
	Pending    int
	Rebuilds   int
	Compacting bool
}

// Stats returns the current composition (one snapshot load plus counters).
func (ix *Index[K]) Stats() Stats {
	s := ix.snap.Load()
	return Stats{
		Live:       s.length(),
		Pending:    s.pending(),
		Rebuilds:   int(ix.rebuilds.Load()),
		Compacting: ix.compacting.Load(),
	}
}

// String implements fmt.Stringer for log lines in the example and bench.
func (ix *Index[K]) String() string {
	st := ix.Stats()
	return fmt.Sprintf("concurrent.Index{live=%d pending=%d rebuilds=%d compacting=%v}",
		st.Live, st.Pending, st.Rebuilds, st.Compacting)
}
