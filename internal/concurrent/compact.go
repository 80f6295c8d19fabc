package concurrent

import (
	"repro/internal/kv"
	"repro/internal/mapped"
	"repro/internal/updatable"
)

// due is the background compaction rule: a snapshot is due once its
// pending writes reach 1/64 of the live key count, with a floor of one
// write head so a small index does not thrash. Rebuild cost thus stays
// proportional to the work absorbed. Close turns background compaction
// off; Compact still runs on demand.
func due(pending, live int) bool {
	return pending >= max(maxHeadLen, live/64)
}

// compactor is the background goroutine: it sleeps until a writer nudges
// it, then compacts as long as the current snapshot is due. A compaction
// error (out-of-memory-grade; the merge itself cannot produce invalid
// input) is recorded for Err and ends the current burst; the goroutine
// stays alive, so the next due write retries.
func (ix *Index[K]) compactor() {
	defer ix.wg.Done()
	for {
		select {
		case <-ix.done:
			return
		case <-ix.wake:
		}
		for {
			select {
			case <-ix.done:
				return
			default:
			}
			s := ix.snap.Load()
			if !due(s.pending(), s.length()) {
				break
			}
			if err := ix.Compact(); err != nil {
				ix.errMu.Lock()
				if ix.err == nil {
					ix.err = err
				}
				ix.errMu.Unlock()
				break
			}
		}
	}
}

// Compact rebuilds the base Shift-Table from the current snapshot while
// reads and writes keep flowing, then publishes the result with a single
// pointer swap. Safe to call manually, before or after Close; concurrent
// calls serialise. The three phases:
//
//  1. Seal (brief writer lock): the current write head is frozen and a
//     fresh empty head is pushed, so writes landing mid-rebuild stay
//     separate from the state being merged. The sealed generations are
//     pinned: head seals merge above them, never into them.
//  2. Rebuild (no locks): the sealed snapshot — view plus sealed
//     generations — is scanned into a fresh sorted key slice, and a new
//     base (CDF model + Shift-Table) is built over that slice, which it
//     keeps without copying. Readers meanwhile serve the published
//     snapshot untouched.
//  3. Publish (brief writer lock): the rebuilt view replaces the sealed
//     state; the fresh head — every write that landed during the rebuild —
//     carries over verbatim onto the new base. That is the whole replay:
//     tombstones cancel by key value, so they mean the same thing over
//     the merged base as they did over the old one.
//
//shift:swap(compaction seal/recover/publish; every store under ix.mu)
func (ix *Index[K]) Compact() error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	// Phase 1: seal. The outgoing head gets its directory (sealGen).
	ix.mu.Lock()
	s0 := ix.snap.Load()
	n0 := len(s0.gens)
	sealed := &snapshot[K]{
		view: s0.view,
		gens: append(append([]*generation[K]{}, s0.gens[:n0-1]...), sealGen(s0.gens[n0-1])),
		tag:  s0.tag,
	}
	opened := &snapshot[K]{
		view: s0.view,
		gens: append(append([]*generation[K]{}, sealed.gens...), &generation[K]{}),
		tag:  s0.tag,
	}
	ix.snap.Store(opened)
	ix.pinned = len(sealed.gens)
	ix.mu.Unlock()

	ix.compacting.Store(true)
	defer ix.compacting.Store(false)
	if ix.testHookRebuild != nil {
		ix.testHookRebuild()
	}

	// Phase 2: rebuild off to the side. The rebuild runs the streaming
	// build seeded with the sealed base table (DESIGN.md §8): the key
	// range shards across cores, each shard writes its partitions'
	// entries straight into the packed layer, and the batch-scratch pool
	// carries over from the predecessor, so steady-state compaction
	// allocates only the merged keys and the packed layer itself, both on
	// huge pages (mapped.MakeHuge).
	merged := mapped.MakeHuge[K](sealed.length())[:0]
	sealed.scan(0, kv.MaxKey[K](), func(k K) bool {
		merged = append(merged, k)
		return true
	})
	rebuilt, err := updatable.NewFrom(merged, updatable.Config{Layer: ix.layerCfg()}, sealed.view.Table())
	if err != nil {
		// Unpin and fold everything below the head into one sealed run,
		// the shape writers keep outside a compaction; the compactor
		// goroutine survives errors, so the next due write retries (and a
		// manual Compact can too).
		ix.mu.Lock()
		//shift:allow-reload(error path re-reads the head under ix.mu to pick up writes that landed mid-rebuild)
		cur := ix.snap.Load()
		n := len(cur.gens) // ≥ 2: the sealed prefix plus the head phase 1 pushed
		run := mergeGens(cur.gens[:n-1])
		ix.snap.Store(&snapshot[K]{view: cur.view, gens: []*generation[K]{run, cur.gens[n-1]}, tag: cur.tag})
		ix.pinned = 0
		ix.mu.Unlock()
		return err
	}
	view := rebuilt.View()

	// Phase 3: publish.
	ix.mu.Lock()
	//shift:allow-reload(publish re-reads the head under ix.mu; the sealed prefix is immutable and the live suffix carries over)
	cur := ix.snap.Load()
	// Writers only ever replace the top generation, append a new head, or
	// merge above the pinned prefix, so cur.gens is the sealed prefix
	// (untouched) plus everything that landed mid-rebuild — at most a
	// sealed run and the head; the suffix survives onto the rebuilt base.
	live := cur.gens[len(sealed.gens):]
	ix.snap.Store(&snapshot[K]{view: view, gens: append([]*generation[K]{}, live...), tag: cur.tag})
	ix.pinned = 0
	ix.mu.Unlock()
	ix.rebuilds.Add(1)
	return nil
}
