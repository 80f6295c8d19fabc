package concurrent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kv"
)

// TestGenRankBatchMatchesScalar is the differential test of the two
// generation-correction paths: the lockstep batch correction
// (genRankBatch) must equal the branch-free scalar one (genRank, through
// the sealed generations' directories) lane by lane, and both must equal
// per-lane kv.LowerBound over every run. The
// runs cover empty runs, lengths either side of the 256-lane chunk and of
// a power of two, all-duplicate runs and runs holding 0 and the key
// type's maximum; the batches cover the empty batch and lengths either
// side of a chunk edge.
func TestGenRankBatchMatchesScalar(t *testing.T) {
	t.Run("uint32", testGenRankBatch[uint32])
	t.Run("uint64", testGenRankBatch[uint64])
}

func testGenRankBatch[K kv.Key](t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	top := kv.MaxKey[K]()
	// pick draws dense values (duplicates likely), values spread over the
	// whole key range, and the two extremes.
	pick := func() K {
		switch r := rng.Intn(16); {
		case r == 0:
			return 0
		case r == 1:
			return top
		case r < 6:
			return K(rng.Uint64())
		default:
			return K(rng.Intn(8192))
		}
	}
	var runs [][]K
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 1023, 1024, 7168} {
		run := make([]K, n)
		for i := range run {
			run[i] = pick()
		}
		slices.Sort(run)
		runs = append(runs, run)
	}
	runs = append(runs,
		slices.Repeat([]K{5}, 300), // all duplicates
		slices.Repeat([]K{0}, 3),
		slices.Repeat([]K{top}, 257),
		[]K{0, 0, 17, top - 1, top, top},
	)

	// Each run alone as inserts and as tombstones in a write head, each
	// run sealed (with its directory) under an empty head, then every run
	// at once, all but the head sealed.
	var stacks [][]*generation[K]
	for i, run := range runs {
		sealed := sealGen(&generation[K]{ins: run, dels: runs[(i+5)%len(runs)]})
		stacks = append(stacks, []*generation[K]{{ins: run}}, []*generation[K]{{dels: run}}, []*generation[K]{sealed, {}})
	}
	var all []*generation[K]
	for i, run := range runs {
		all = append(all, &generation[K]{ins: run, dels: runs[(i+3)%len(runs)]})
	}
	for i := range all[:len(all)-1] {
		all[i] = sealGen(all[i])
	}
	stacks = append(stacks, all)

	// Queries: the extremes, run keys and their neighbours, and fresh draws.
	pool := []K{0, top, 1, top - 1}
	for len(pool) < 4096 {
		run := runs[rng.Intn(len(runs))]
		switch {
		case len(run) == 0 || rng.Intn(3) == 0:
			pool = append(pool, pick())
		default:
			pool = append(pool, run[rng.Intn(len(run))]+K(rng.Intn(3))-1)
		}
	}
	rng.Shuffle(len(pool)-4, func(i, j int) { pool[i+4], pool[j+4] = pool[j+4], pool[i+4] })

	for si, gens := range stacks {
		s := &snapshot[K]{gens: gens}
		for _, lanes := range []int{0, 1, 255, 256, 257, 4096} {
			qs := pool[:lanes]
			// The batch adds to what out holds (the view's ranks).
			base := make([]int, lanes)
			for i := range base {
				base[i] = rng.Intn(1 << 20)
			}
			out := slices.Clone(base)
			s.genRankBatch(qs, out)
			for i, q := range qs {
				want := 0
				for _, g := range gens {
					want += kv.LowerBound(g.ins, q) - kv.LowerBound(g.dels, q)
				}
				if got := s.genRank(q); got != want {
					t.Fatalf("stack %d: genRank(%d) = %d, want %d", si, q, got, want)
				}
				if got := out[i] - base[i]; got != want {
					t.Fatalf("stack %d, %d lanes: batch correction for lane %d (q=%d) = %d, want %d",
						si, lanes, i, q, got, want)
				}
			}
		}
	}
}

// TestFindBatchTaggedAllocs: a batch against a sealed run and a write
// head allocates nothing once out is sized, at a full lockstep chunk and
// across several chunks, and Lookup pairs each lane's rank with the right
// existence bit.
func TestFindBatchTaggedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	rng := rand.New(rand.NewSource(29))
	initial := make([]uint64, 20_000)
	for i := range initial {
		initial[i] = uint64(i) * 7
	}
	ix, err := New(initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	ref := &reference{keys: slices.Clone(initial)}
	for i := 0; i < maxHeadLen+300; i++ {
		k := rng.Uint64() % 150_000
		if i%4 == 3 {
			if ix.Delete(k) != ref.delete(k) {
				t.Fatalf("Delete(%d) disagrees with the reference", k)
			}
			continue
		}
		ix.Insert(k)
		ref.insert(k)
	}
	if g := ix.Published().Gens(); g != 2 {
		t.Fatalf("%d generations, want a sealed run and a head", g)
	}
	for _, lanes := range []int{256, 1000} {
		t.Run(fmt.Sprint(lanes), func(t *testing.T) {
			qs := make([]uint64, lanes)
			for i := range qs {
				qs[i] = rng.Uint64() % 160_000
			}
			out := make([]int, lanes)
			out, _ = ix.FindBatchTagged(qs, out)
			for i, q := range qs {
				if want := kv.LowerBound(ref.keys, q); out[i] != want {
					t.Fatalf("rank for %d = %d, want %d", q, out[i], want)
				}
			}
			if n := testing.AllocsPerRun(100, func() { out, _ = ix.FindBatchTagged(qs, out) }); n != 0 {
				t.Errorf("%v allocations per FindBatchTagged of %d lanes, want 0", n, lanes)
			}
			for i, q := range qs {
				wantFound := out[i] < len(ref.keys) && ref.keys[out[i]] == q
				if r, f := ix.Lookup(q); r != out[i] || f != wantFound {
					t.Fatalf("Lookup(%d) = (%d,%v), want (%d,%v)", q, r, f, out[i], wantFound)
				}
			}
		})
	}
}
