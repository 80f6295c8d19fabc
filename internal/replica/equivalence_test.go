package replica

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/concurrent"
)

// TestDeltaEquivalence is the ISSUE's bit-identity satellite: after
// (base full snapshot + N shipped generation deltas), the replica's
// persisted state is byte-for-byte identical to the primary's own full
// snapshot at the same version — not just semantically equal. Neither
// side compacts in the background (the replica never writes; the
// primary is closed right after New, or its view could shift between
// capture and compare), so the persisted layer configuration agrees and
// the only degrees of freedom are view + generations, which replication
// claims to reproduce exactly.
func TestDeltaEquivalence(t *testing.T) {
	corpora := map[string]func(rnd *rand.Rand) (base []uint64, writes func(ix *concurrent.Index[uint64], round int)){
		// Every key appears many times; deletes must cancel exactly one
		// occurrence and survive shipping.
		"dup-heavy": func(rnd *rand.Rand) ([]uint64, func(*concurrent.Index[uint64], int)) {
			base := make([]uint64, 6000)
			for i := range base {
				base[i] = uint64(rnd.Intn(50)) * 1000
			}
			slices.Sort(base)
			return base, func(ix *concurrent.Index[uint64], round int) {
				r := rand.New(rand.NewSource(int64(round)))
				for i := 0; i < 400; i++ {
					ix.Insert(uint64(r.Intn(50)) * 1000)
				}
				for i := 0; i < 200; i++ {
					ix.Delete(uint64(r.Intn(50)) * 1000)
				}
			}
		},
		// Inserts land far outside the base distribution (drift), the
		// case the paper's update-tracking sketch is about.
		"drifted": func(rnd *rand.Rand) ([]uint64, func(*concurrent.Index[uint64], int)) {
			base := make([]uint64, 8000)
			for i := range base {
				base[i] = uint64(i) * 10
			}
			return base, func(ix *concurrent.Index[uint64], round int) {
				r := rand.New(rand.NewSource(int64(round) + 99))
				hot := uint64(1_000_000 + round*10_000)
				for i := 0; i < 600; i++ {
					ix.Insert(hot + uint64(r.Intn(500)))
				}
				for i := 0; i < 100; i++ {
					ix.Delete(uint64(r.Intn(8000)) * 10)
				}
			}
		},
		// Start from nothing; the base full snapshot is an empty view.
		"empty": func(rnd *rand.Rand) ([]uint64, func(*concurrent.Index[uint64], int)) {
			return nil, func(ix *concurrent.Index[uint64], round int) {
				r := rand.New(rand.NewSource(int64(round) + 7))
				for i := 0; i < 300; i++ {
					ix.Insert(r.Uint64() % 10_000)
				}
				for i := 0; i < 50; i++ {
					ix.Delete(r.Uint64() % 10_000)
				}
			}
		},
	}

	for name, build := range corpora {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			rnd := rand.New(rand.NewSource(1))
			base, writes := build(rnd)
			primary, err := concurrent.New(base, concurrent.Config{})
			if err != nil {
				t.Fatal(err)
			}
			primary.Close() // no background compaction: explicit Compact calls only

			store := DirStore{Dir: t.TempDir()}
			pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReplica[uint64](store, t.TempDir(), ReplicaConfig{Retry: fastRetry})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// v1: full. v2..v5: deltas, each synced and compared.
			const deltas = 4
			for round := 0; round <= deltas; round++ {
				if round > 0 {
					writes(primary, round)
				}
				v, full, err := pub.Publish(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if wantFull := round == 0; full != wantFull {
					t.Fatalf("round %d: full=%v, want %v", round, full, wantFull)
				}
				if err := r.Sync(ctx); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if got := r.Index().Tag(); got != v {
					t.Fatalf("round %d: replica at version %d, want %d", round, got, v)
				}

				var primaryBytes, replicaBytes bytes.Buffer
				if err := concurrent.Save(&primaryBytes, primary); err != nil {
					t.Fatal(err)
				}
				if err := concurrent.Save(&replicaBytes, r.Index()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(primaryBytes.Bytes(), replicaBytes.Bytes()) {
					t.Fatalf("round %d (version %d): replica state is not bit-identical to the primary's full snapshot (%d vs %d bytes)",
						round, v, replicaBytes.Len(), primaryBytes.Len())
				}
			}
		})
	}
}
