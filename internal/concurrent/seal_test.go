package concurrent

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kv"
)

// pinnedOf reads the compaction pin under the writer lock.
func pinnedOf(ix *Index[uint64]) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.pinned
}

// checkReads compares every read path of the published snapshot with the
// sorted multiset ref: Len always, and Find, Lookup, FindBatchTagged and
// Scan at qs. full widens the scan to the whole domain. The caller is the
// only writer and no compaction publishes meanwhile, so every call
// answers from the same snapshot.
func checkReads(t *testing.T, ix *Index[uint64], ref []uint64, qs []uint64, full bool) {
	t.Helper()
	if got := ix.Len(); got != len(ref) {
		t.Fatalf("Len = %d, want %d", got, len(ref))
	}
	batch, _ := ix.FindBatchTagged(qs, nil)
	for i, q := range qs {
		want := kv.LowerBound(ref, q)
		wantFound := want < len(ref) && ref[want] == q
		if got := ix.Find(q); got != want {
			t.Fatalf("Find(%d) = %d, want %d", q, got, want)
		}
		if r, f := ix.Lookup(q); r != want || f != wantFound {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,%v)", q, r, f, want, wantFound)
		}
		if batch[i] != want {
			t.Fatalf("FindBatchTagged lane %d (%d) = %d, want %d", i, q, batch[i], want)
		}
	}
	a, b := qs[0], ^uint64(0) // a window of about 64 live keys from qs[0]
	if i := kv.LowerBound(ref, a) + 64; i < len(ref) {
		b = ref[i]
	}
	if full {
		a, b = 0, ^uint64(0)
	}
	var got []uint64
	ix.Scan(a, b, func(k uint64) bool { got = append(got, k); return true })
	if want := ref[kv.LowerBound(ref, a):kv.UpperBound(ref, b)]; !slices.Equal(got, want) {
		t.Fatalf("Scan(%d, %d) returned %d keys, want %d", a, b, len(got), len(want))
	}
}

// stream drives random writes against an index and a reference multiset:
// inserts (fresh values and duplicates of live keys), deletes of recently
// inserted keys (which sit in the head or the sealed run), and deletes of
// live or absent base-range values.
type stream struct {
	ix     *Index[uint64]
	ref    *reference
	recent []uint64
	rng    *rand.Rand
	domain uint64
}

func (s *stream) write(t *testing.T) {
	t.Helper()
	switch r := s.rng.Intn(8); {
	case r < 4:
		k := s.rng.Uint64() % s.domain
		if r == 0 {
			k = s.ref.keys[s.rng.Intn(len(s.ref.keys))]
		}
		s.ix.Insert(k)
		s.ref.insert(k)
		s.recent = append(s.recent, k)
	case r < 6 && len(s.recent) > 0:
		i := s.rng.Intn(len(s.recent))
		k := s.recent[i]
		s.recent[i] = s.recent[len(s.recent)-1]
		s.recent = s.recent[:len(s.recent)-1]
		if got, want := s.ix.Delete(k), s.ref.delete(k); got != want {
			t.Fatalf("Delete(%d) of a pending insert = %v, want %v", k, got, want)
		}
	default:
		k := s.rng.Uint64() % s.domain
		if r == 6 {
			k = s.ref.keys[s.rng.Intn(len(s.ref.keys))]
		}
		if got, want := s.ix.Delete(k), s.ref.delete(k); got != want {
			t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
		}
	}
}

// queries draws probes around live keys, recent inserts and random values.
func (s *stream) queries(n int) []uint64 {
	qs := make([]uint64, n)
	for i := range qs {
		switch i % 4 {
		case 0:
			qs[i] = s.ref.keys[s.rng.Intn(len(s.ref.keys))]
		case 1:
			qs[i] = s.ref.keys[s.rng.Intn(len(s.ref.keys))] + 1
		case 2:
			if len(s.recent) > 0 {
				qs[i] = s.recent[s.rng.Intn(len(s.recent))]
				break
			}
			fallthrough
		default:
			qs[i] = s.rng.Uint64() % (s.domain + 16)
		}
	}
	return qs
}

// TestMergedStackMatchesOracle: head seals merge into one sealed run, and
// manual compactions run with several seals landing mid-rebuild. After
// every write the published snapshot answers Len like a sorted multiset
// does, every few writes and at every seal it answers Find, Lookup,
// FindBatchTagged and Scan like it too, and the stack keeps its shape: at
// most a sealed run and the head outside a compaction, at most that above
// the pinned generations during one.
func TestMergedStackMatchesOracle(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 4_000, 17)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // explicit compactions only
	entered, release := make(chan struct{}), make(chan struct{})
	ix.testHookRebuild = func() {
		entered <- struct{}{}
		<-release
	}
	s := &stream{
		ix:     ix,
		ref:    &reference{keys: slices.Clone(keys)},
		rng:    rand.New(rand.NewSource(23)),
		domain: keys[len(keys)-1] + 2,
	}
	writes := func(n, maxGens int) {
		t.Helper()
		for i := 0; i < n; i++ {
			before := ix.Published().Gens()
			s.write(t)
			gens := ix.Published().Gens()
			if gens > maxGens {
				t.Fatalf("stack holds %d generations, want ≤ %d", gens, maxGens)
			}
			if gens != before || i%16 == 0 {
				checkReads(t, ix, s.ref.keys, s.queries(32), false)
			} else if got := ix.Len(); got != len(s.ref.keys) {
				t.Fatalf("Len = %d, want %d", got, len(s.ref.keys))
			}
		}
	}
	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		writes(2_500, 2)
		checkReads(t, ix, s.ref.keys, s.queries(256), true)

		done := make(chan error, 1)
		go func() { done <- ix.Compact() }()
		<-entered
		pinned := pinnedOf(ix)
		if pinned < 1 || pinned > 2 {
			t.Fatalf("compaction pinned %d generations, want 1 or 2", pinned)
		}
		writes(3_500, pinned+2) // several seals above the pinned prefix
		checkReads(t, ix, s.ref.keys, s.queries(256), true)
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if p := pinnedOf(ix); p != 0 {
			t.Fatalf("pin left at %d after the compaction published", p)
		}
		if gens := ix.Published().Gens(); gens > 2 {
			t.Fatalf("published compaction left %d generations, want ≤ 2", gens)
		}
		checkReads(t, ix, s.ref.keys, s.queries(256), true)
	}
}

// TestStackShape pins the stack's shape on an insert-only stream: one
// generation until the head first fills, then exactly a sealed run
// holding every earlier write plus the head; a compaction in flight pins
// what it sealed and stacks at most a run and a head above it.
func TestStackShape(t *testing.T) {
	ix, err := New([]uint64{1, 2, 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // explicit compactions only
	for i := 1; i <= 10*maxHeadLen; i++ {
		ix.Insert(uint64(i * 7))
		p := ix.Published()
		want := 2
		if i <= maxHeadLen {
			want = 1
		}
		if p.Gens() != want || p.Pending() != i {
			t.Fatalf("after %d inserts: %d generations, %d pending; want %d, %d", i, p.Gens(), p.Pending(), want, i)
		}
		if head := p.s.gens[len(p.s.gens)-1]; head.size() != (i-1)%maxHeadLen+1 {
			t.Fatalf("after %d inserts the head holds %d writes", i, head.size())
		}
	}

	entered, release := make(chan struct{}), make(chan struct{})
	ix.testHookRebuild = func() {
		entered <- struct{}{}
		<-release
	}
	done := make(chan error, 1)
	go func() { done <- ix.Compact() }()
	<-entered
	pinned := pinnedOf(ix)
	if pinned != 2 {
		t.Fatalf("compaction pinned %d generations, want 2", pinned)
	}
	sealed := ix.Published().s.gens[:pinned]
	for i := 0; i < 4*maxHeadLen; i++ {
		ix.Insert(uint64(i*7 + 3))
		if gens := ix.Published().Gens(); gens > pinned+2 {
			t.Fatalf("mid-rebuild write %d: %d generations, want ≤ %d", i, gens, pinned+2)
		}
	}
	for i, g := range ix.Published().s.gens[:pinned] {
		if g != sealed[i] {
			t.Fatalf("pinned generation %d changed during the compaction", i)
		}
	}
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p := ix.Published(); p.Gens() != 2 || p.Pending() != 4*maxHeadLen {
		t.Fatalf("after publish: %d generations, %d pending; want 2, %d", p.Gens(), p.Pending(), 4*maxHeadLen)
	}
}

// deepStack replaces ix's published generations with an eight-generation
// stack of the kind earlier builds sealed (one generation per maxHeadLen
// writes), whose later tombstones cancel earlier generations' inserts as
// well as base keys. It returns the resulting multiset.
func deepStack(t *testing.T, ix *Index[uint64], keys []uint64) []uint64 {
	t.Helper()
	ref := &reference{keys: slices.Clone(keys)}
	rng := rand.New(rand.NewSource(31))
	var gens []*generation[uint64]
	var inserted []uint64
	for g := 0; g < 8; g++ {
		gen := &generation[uint64]{}
		for gen.size() < maxHeadLen {
			var k uint64
			switch {
			case rng.Intn(4) < 3:
				k = rng.Uint64() % (keys[len(keys)-1] + 2)
				gen = gen.withInsert(k)
				ref.insert(k)
				inserted = append(inserted, k)
				continue
			case g > 0 && rng.Intn(2) == 0:
				k = inserted[rng.Intn(len(inserted))]
			default:
				k = ref.keys[rng.Intn(len(ref.keys))]
			}
			if ref.delete(k) {
				gen = gen.withDelete(k)
			}
		}
		gens = append(gens, gen)
	}
	ix.mu.Lock()
	cur := ix.snap.Load()
	ix.snap.Store(&snapshot[uint64]{view: cur.view, gens: gens, tag: cur.tag})
	ix.mu.Unlock()
	if got := ix.Published().Gens(); got != 8 {
		t.Fatalf("deep stack holds %d generations, want 8", got)
	}
	return ref.keys
}

// TestWarmRestartFoldsDeepStack: a snapshot persisted with eight
// generations restores, through every warm-restart entry point, as one
// sealed run under an empty head, answering exactly as the deep stack did.
func TestWarmRestartFoldsDeepStack(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 6_000, 29)
	orig, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	orig.Close() // explicit compactions only
	ref := deepStack(t, orig, keys)
	pending := orig.Pending()

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deep.snap")
	if err := SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	restores := map[string]func() (*Index[uint64], error){
		"Load":     func() (*Index[uint64], error) { return loadBytes(buf.Bytes()) },
		"LoadFile": func() (*Index[uint64], error) { return LoadFile[uint64](path) },
		"MapFile":  func() (*Index[uint64], error) { return mapFile(path) },
	}
	s := &stream{ref: &reference{keys: ref}, rng: rand.New(rand.NewSource(5)), domain: keys[len(keys)-1] + 2}
	for name, restore := range restores {
		ix, err := restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := ix.Published()
		if p.Gens() != 2 || p.Pending() != pending || p.s.gens[1].size() != 0 {
			t.Fatalf("%s: restored %d generations (%d pending, head %d); want a run of %d under an empty head",
				name, p.Gens(), p.Pending(), p.s.gens[1].size(), pending)
		}
		checkReads(t, ix, ref, s.queries(512), true)
		ix.Close()
	}
}

// TestCompactErrorSettlesStack: a failed rebuild unpins and folds the
// stack — sealed generations and mid-rebuild seals alike — into one run
// under the live head, and the index keeps its contents and recovers.
func TestCompactErrorSettlesStack(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 3_000, 41)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // explicit compactions only
	s := &stream{
		ix:     ix,
		ref:    &reference{keys: slices.Clone(keys)},
		rng:    rand.New(rand.NewSource(43)),
		domain: keys[len(keys)-1] + 2,
	}
	for i := 0; i < 2_500; i++ {
		s.write(t)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	ix.testHookRebuild = func() {
		entered <- struct{}{}
		<-release
	}
	good := ix.layerCfg()
	ix.layer.Store(&core.Config{M: -1}) // the rebuild refuses this layer size
	done := make(chan error, 1)
	go func() { done <- ix.Compact() }()
	<-entered
	for i := 0; i < 2_500; i++ {
		s.write(t)
	}
	head := ix.Published().s.gens[ix.Published().Gens()-1]
	release <- struct{}{}
	if err := <-done; err == nil {
		t.Fatal("Compact with an invalid layer succeeded")
	}
	p := ix.Published()
	if p.Gens() != 2 || p.s.gens[1] != head || pinnedOf(ix) != 0 {
		t.Fatalf("after the failed rebuild: %d generations, head kept %v, pin %d; want 2, true, 0",
			p.Gens(), p.s.gens[1] == head, pinnedOf(ix))
	}
	checkReads(t, ix, s.ref.keys, s.queries(256), true)

	ix.layer.Store(&good)
	ix.testHookRebuild = nil
	for i := 0; i < 1_500; i++ {
		s.write(t)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	checkReads(t, ix, s.ref.keys, s.queries(256), true)
}

// TestMergeGens: the pairwise fold equals sorting the concatenated
// multisets, for stacks of any depth including empty generations.
func TestMergeGens(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for depth := 1; depth <= 9; depth++ {
		gens := make([]*generation[uint64], depth)
		var ins, dels []uint64
		for i := range gens {
			g := &generation[uint64]{}
			for j := rng.Intn(40); j > 0; j-- {
				if rng.Intn(3) == 0 {
					g = g.withDelete(rng.Uint64() % 50)
				} else {
					g = g.withInsert(rng.Uint64() % 50)
				}
			}
			gens[i] = g
			ins, dels = append(ins, g.ins...), append(dels, g.dels...)
		}
		slices.Sort(ins)
		slices.Sort(dels)
		got := mergeGens(gens)
		if !slices.Equal(got.ins, ins) || !slices.Equal(got.dels, dels) {
			t.Fatalf("depth %d: merged ins %v dels %v, want %v %v", depth, got.ins, got.dels, ins, dels)
		}
	}
}

// checkDirs checks the stack invariant of the published snapshot: every
// generation below the write head carries the directory its own runs
// give (a stale or missing one fails), and the head carries none.
func checkDirs(t *testing.T, path string, ix *Index[uint64]) {
	t.Helper()
	gens := ix.Published().s.gens
	n := len(gens)
	for i, g := range gens[:n-1] {
		if want := newGenDir(g.ins, g.dels); g.dir.off == nil || !reflect.DeepEqual(g.dir, want) {
			t.Fatalf("%s: generation %d of %d (%d pending) has no directory or a stale one", path, i, n, g.size())
		}
	}
	if gens[n-1].dir.off != nil {
		t.Fatalf("%s: the write head carries a directory", path)
	}
}

// TestSealedGenerationsHaveDirectories: every path that puts a generation
// below the write head gives it its directory before publishing — a
// merged head seal, a seal above a compaction's pinned prefix (and the
// head the compaction itself sealed), a compaction's publish, the fold
// after a failed rebuild, a replica's InstallState and InstallDelta, and
// the LoadFile and MapFile warm restarts. Reads stay exact throughout.
func TestSealedGenerationsHaveDirectories(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 4_000, 61)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // explicit compactions only
	s := &stream{
		ix:     ix,
		ref:    &reference{keys: slices.Clone(keys)},
		rng:    rand.New(rand.NewSource(67)),
		domain: keys[len(keys)-1] + 2,
	}
	writes := func(path string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			before := ix.Published().Gens()
			s.write(t)
			if ix.Published().Gens() != before || i%97 == 0 {
				checkDirs(t, path, ix)
			}
		}
		checkDirs(t, path, ix)
		checkReads(t, ix, s.ref.keys, s.queries(128), false)
	}
	writes("merged seal", 3*maxHeadLen+100)

	entered, release := make(chan struct{}), make(chan struct{})
	ix.testHookRebuild = func() {
		entered <- struct{}{}
		<-release
	}
	done := make(chan error, 1)
	go func() { done <- ix.Compact() }()
	<-entered
	checkDirs(t, "compaction seal", ix)
	writes("pinned seal", 3*maxHeadLen)
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkDirs(t, "compaction publish", ix)

	good := ix.layerCfg()
	ix.layer.Store(&core.Config{M: -1}) // the rebuild refuses this layer size
	go func() { done <- ix.Compact() }()
	<-entered
	writes("seal during a failing rebuild", 2*maxHeadLen)
	release <- struct{}{}
	if err := <-done; err == nil {
		t.Fatal("Compact with an invalid layer succeeded")
	}
	checkDirs(t, "failed-rebuild fold", ix)
	checkReads(t, ix, s.ref.keys, s.queries(128), true)
	ix.layer.Store(&good)
	ix.testHookRebuild = nil

	// The persisted paths, from an eight-generation stack whose
	// generations were built without directories, over the current base.
	ref := deepStack(t, ix, slices.Clone(ix.Published().s.view.Keys()))
	dir := t.TempDir()
	full, delta := filepath.Join(dir, "full.snap"), filepath.Join(dir, "delta.snap")
	pub := ix.Published()
	if err := SaveStateFile(full, pub); err != nil {
		t.Fatal(err)
	}
	if err := SaveDeltaFile(delta, pub, DeltaInfo{Version: 2, Base: 1}); err != nil {
		t.Fatal(err)
	}
	qs := (&stream{ref: &reference{keys: ref}, rng: rand.New(rand.NewSource(71)), domain: s.domain}).queries(256)
	for name, restore := range map[string]func() (*Index[uint64], error){
		"LoadFile": func() (*Index[uint64], error) { return LoadFile[uint64](full) },
		"MapFile":  func() (*Index[uint64], error) { return mapFile(full) },
	} {
		rx, err := restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rx.Close()
		checkDirs(t, name, rx)
		checkReads(t, rx, ref, qs, false)
	}
	st, err := LoadStateFile[uint64](full)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := New[uint64](nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rx.Close()
	if err := rx.InstallState(st, 1); err != nil {
		t.Fatal(err)
	}
	if g := rx.Published().Gens(); g != 8 {
		t.Fatalf("InstallState kept %d generations, want the 8 persisted", g)
	}
	checkDirs(t, "InstallState", rx)
	checkReads(t, rx, ref, qs, false)
	d, err := LoadDeltaFile[uint64](delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.InstallDelta(st, d, 2); err != nil {
		t.Fatal(err)
	}
	checkDirs(t, "InstallDelta", rx)
	checkReads(t, rx, ref, qs, false)
}
