package concurrent

import (
	"fmt"

	"repro/internal/updatable"
)

// PolicyKind selects how the background compactor decides a rebuild is
// due.
type PolicyKind int

const (
	// DeltaFraction compacts when pending writes exceed Fraction of the
	// live key count (with a floor so tiny indexes don't thrash). This is
	// the default: rebuild cost stays proportional to the work absorbed.
	DeltaFraction PolicyKind = iota
	// DeltaCount compacts when pending writes reach Count, independent of
	// index size: a bound on worst-case write amplification per op.
	DeltaCount
	// Manual never compacts in the background; only explicit Compact
	// calls rebuild the base.
	Manual
)

func (k PolicyKind) String() string {
	switch k {
	case DeltaFraction:
		return "delta-fraction"
	case DeltaCount:
		return "delta-count"
	case Manual:
		return "manual"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// CompactionPolicy decides when the background compactor runs. The zero
// value is DeltaFraction with defaults (1/64 of the live count, floor
// 1024 — matching the single-threaded updatable.Config.MaxDelta default).
type CompactionPolicy struct {
	Kind PolicyKind
	// Fraction applies to DeltaFraction: compact when pending >=
	// Fraction * live. 0 defaults to 1/64.
	Fraction float64
	// Count applies to DeltaCount: compact when pending >= Count. 0
	// defaults to 4096.
	Count int
}

func (p CompactionPolicy) validate() error {
	switch p.Kind {
	case DeltaFraction, DeltaCount, Manual:
	default:
		return fmt.Errorf("concurrent: unknown policy kind %v", p.Kind)
	}
	if p.Fraction < 0 {
		return fmt.Errorf("concurrent: negative policy fraction %v", p.Fraction)
	}
	if p.Count < 0 {
		return fmt.Errorf("concurrent: negative policy count %d", p.Count)
	}
	return nil
}

// due reports whether a snapshot with the given pending-write and live
// counts should be compacted.
func (p CompactionPolicy) due(pending, live int) bool {
	switch p.Kind {
	case Manual:
		return false
	case DeltaCount:
		count := p.Count
		if count == 0 {
			count = 4096
		}
		return pending >= count
	default: // DeltaFraction
		frac := p.Fraction
		if frac == 0 {
			frac = 1.0 / 64
		}
		threshold := int(frac * float64(live))
		if threshold < 1024 {
			threshold = 1024
		}
		return pending >= threshold
	}
}

// compactor is the background goroutine: it sleeps until a writer nudges
// it, then compacts as long as the policy says the current snapshot is
// due. A compaction error (out-of-memory-grade; the merge itself cannot
// produce invalid input) is recorded for Err and ends the current burst;
// the goroutine stays alive, so the next due write retries.
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
			if !ix.policy.due(s.pending(), s.length()) {
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
// pointer swap. Safe to call manually under any policy; concurrent calls
// serialise. The three phases:
//
//  1. Seal (brief writer lock): the current write head is frozen and a
//     fresh empty head is pushed, so writes landing mid-rebuild stay
//     separate from the state being merged. The sealed generations are
//     pinned: head seals merge above them, never into them.
//  2. Rebuild (no locks): the sealed snapshot — view plus sealed
//     generations — is scanned into a fresh sorted key slice, and a new
//     updatable index (CDF model + Shift-Table, no tombstones) is built
//     over it. Readers meanwhile serve the published snapshot untouched.
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

	// Phase 1: seal.
	ix.mu.Lock()
	s0 := ix.snap.Load()
	sealed := &snapshot[K]{view: s0.view, gens: s0.gens, tag: s0.tag}
	opened := &snapshot[K]{
		view: s0.view,
		gens: append(append([]*generation[K]{}, s0.gens...), &generation[K]{}),
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

	// Phase 2: rebuild off to the side. The rebuild runs the parallel
	// build pipeline seeded with the sealed base table (DESIGN.md §8):
	// model predictions and per-partition accumulation shard across
	// cores, and the build arena plus the batch-scratch pool carry over
	// from the predecessor, so steady-state compaction allocates only the
	// merged keys and the packed layer itself.
	merged := make([]K, 0, sealed.length())
	sealed.scan(0, maxOf[K](), func(k K) bool {
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
	view := rebuilt.Freeze()

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
