package concurrent

import (
	"repro/internal/kv"
	"repro/internal/search"
	"repro/internal/updatable"
)

// A snapshot is one immutable, fully-consistent state of the index: an
// updatable.View (sorted base keys + Shift-Table, shared without copying
// by every snapshot until a compaction replaces it) plus a stack of write
// generations layered on top. Readers load the current
// snapshot with a single atomic pointer load and never see it change
// underneath them; writers and the compactor publish successors.
//
// The last generation is the write head; every write publishes a successor
// snapshot with a fresh copy of it. To keep that copy small the head is
// sealed once it reaches maxHeadLen: sealHead merges it into the one
// sealed run below it and pushes a new empty head. Outside a compaction a
// snapshot therefore carries at most two generations — the sealed run and
// the head — and a scalar read pays two whole-run searches of the head
// plus, for the sealed run, one directory read and two searches of a few
// keys each (gendir.go), whatever the write history. Compaction seals the
// whole stack, merges it into a rebuilt base, and publishes the result
// with the generations written during the rebuild carried over verbatim
// (that is the write replay). It splits those off by count, so the
// generations it sealed are pinned and never merged into: at most four
// generations while a compaction is in flight.

// maxHeadLen bounds the write head: a write that finds the head at this
// size seals it and opens a fresh one. It caps the per-write copy at a few
// KiB; the seal itself is one O(pending) merge per maxHeadLen writes.
const maxHeadLen = 1024

// generation is an immutable batch of writes on top of a view: ins holds
// inserted keys, dels holds tombstones. Both are sorted multisets. A
// tombstone of value k cancels exactly one occurrence of k anywhere below
// it (base or an earlier generation's ins) — deletion
// accounting is by key value, not position, so it survives the base
// rebuild unchanged.
//
// A generation below the write head also carries a radix directory over
// its two runs (gendir.go), built when it is sealed.
type generation[K kv.Key] struct {
	ins  []K
	dels []K
	dir  genDir[K]
}

// size is the number of pending write operations the generation carries.
func (g *generation[K]) size() int { return len(g.ins) + len(g.dels) }

// withInsert returns a copy with one occurrence of k added.
func (g *generation[K]) withInsert(k K) *generation[K] {
	i := kv.UpperBound(g.ins, k)
	ins := make([]K, len(g.ins)+1)
	copy(ins, g.ins[:i])
	ins[i] = k
	copy(ins[i+1:], g.ins[i:])
	return &generation[K]{ins: ins, dels: g.dels}
}

// withoutIns returns a copy with the pending insert at index i removed.
func (g *generation[K]) withoutIns(i int) *generation[K] {
	ins := make([]K, 0, len(g.ins)-1)
	ins = append(append(ins, g.ins[:i]...), g.ins[i+1:]...)
	return &generation[K]{ins: ins, dels: g.dels}
}

// withDelete returns a copy with a tombstone for one occurrence of k.
func (g *generation[K]) withDelete(k K) *generation[K] {
	i := kv.UpperBound(g.dels, k)
	dels := make([]K, len(g.dels)+1)
	copy(dels, g.dels[:i])
	dels[i] = k
	copy(dels[i+1:], g.dels[i:])
	return &generation[K]{ins: g.ins, dels: dels}
}

// mergeGen returns one generation holding both a's and b's writes: ins and
// dels are each a linear two-way merge of sorted multisets. Rank, count,
// length and scan are sums over generations, and a tombstone cancels by
// value whichever generation holds the occurrence, so the merged
// generation answers exactly as the pair did. It has no directory yet:
// callers seal the final result (sealGen), not every intermediate.
func mergeGen[K kv.Key](a, b *generation[K]) *generation[K] {
	return &generation[K]{ins: mergeSorted(a.ins, b.ins), dels: mergeSorted(a.dels, b.dels)}
}

// mergeSorted merges two sorted multisets. Generations are immutable, so
// an empty side returns the other slice without copying.
func mergeSorted[K kv.Key](a, b []K) []K {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]K, len(a)+len(b))
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
	return out
}

// mergeGens folds a non-empty generation stack into one sealed run, with
// its directory, by rounds of pairwise merges, O(pending · log len(gens)).
func mergeGens[K kv.Key](gens []*generation[K]) *generation[K] {
	for len(gens) > 1 {
		next := make([]*generation[K], 0, (len(gens)+1)/2)
		for i := 0; i+1 < len(gens); i += 2 {
			next = append(next, mergeGen(gens[i], gens[i+1]))
		}
		if len(gens)%2 == 1 {
			next = append(next, gens[len(gens)-1])
		}
		gens = next
	}
	return sealGen(gens[0])
}

// countEq returns the number of occurrences of q in the sorted slice xs.
func countEq[K kv.Key](xs []K, q K) int {
	return kv.UpperBound(xs, q) - kv.LowerBound(xs, q)
}

type snapshot[K kv.Key] struct {
	view *updatable.View[K]
	gens []*generation[K] // oldest first; the last is the write head

	// tag is an opaque caller-supplied label carried by the snapshot and
	// every successor derived from it (writes, compactions). Replication
	// sets it to the installed version so a reader can learn, atomically
	// with its results, which published version answered the query
	// (FindBatchTagged). Zero when never installed.
	tag uint64
}

// replaceTop returns a successor snapshot with the write head swapped. The
// gens slice is copied — snapshots never share backing arrays whose
// elements differ.
func (s *snapshot[K]) replaceTop(g *generation[K]) *snapshot[K] {
	gens := append([]*generation[K]{}, s.gens...)
	gens[len(gens)-1] = g
	return &snapshot[K]{view: s.view, gens: gens, tag: s.tag}
}

// sealHead returns a successor snapshot with g as the new write head. The
// outgoing head is merged into the sealed run below it, unless there is
// none or that run is one of the first pinned generations — the ones an
// in-flight compaction sealed, which its publish step splits off by
// count — in which case the outgoing head, given its directory, becomes
// the sealed run above them.
func (s *snapshot[K]) sealHead(pinned int, g *generation[K]) *snapshot[K] {
	n := len(s.gens)
	gens := make([]*generation[K], 0, n+1)
	if n-2 >= pinned {
		gens = append(append(gens, s.gens[:n-2]...), sealGen(mergeGen(s.gens[n-2], s.gens[n-1])))
	} else {
		gens = append(append(gens, s.gens[:n-1]...), sealGen(s.gens[n-1]))
	}
	return &snapshot[K]{view: s.view, gens: append(gens, g), tag: s.tag}
}

// pending is the number of write operations not yet merged into the base.
func (s *snapshot[K]) pending() int {
	n := 0
	for _, g := range s.gens {
		n += g.size()
	}
	return n
}

// length is the number of live keys.
func (s *snapshot[K]) length() int {
	n := s.view.Len()
	for _, g := range s.gens {
		n += len(g.ins) - len(g.dels)
	}
	return n
}

// genRank is the generations' correction to a view rank: inserted keys
// below q add one each, tombstoned occurrences below q remove one each.
// Each sealed generation answers from its directory's bucket windows
// (generation.rank), the write head from its two whole runs, searched
// inline so that a snapshot with no sealed generation pays no call.
func (s *snapshot[K]) genRank(q K) int {
	n := len(s.gens) - 1
	h := s.gens[n]
	r := search.Branchless(h.ins, q) - search.Branchless(h.dels, q)
	if n == 0 {
		return r
	}
	for _, g := range s.gens[:n] {
		r += g.rank(q)
	}
	return r
}

// genRankBatch adds genRank(qs[i]) to out[i] for every lane, one run at a
// time: each run is searched for all lanes in lockstep (addLowerBounds),
// in lockstepKernel where this CPU has it. With no pending writes it
// returns before the lane scratch is declared, so it does not pay for
// zeroing it.
func (s *snapshot[K]) genRankBatch(qs []K, out []int) {
	if s.pending() == 0 {
		return
	}
	var lanes [lockstepLanes]int
	for _, g := range s.gens {
		addLowerBounds(g.ins, qs, out, 1, &lanes, haveKernel)
		addLowerBounds(g.dels, qs, out, -1, &lanes, haveKernel)
	}
}

// lockstepLanes is how many lanes addLowerBounds searches at once: their
// positions live in a stack array, so a batch of any size allocates
// nothing.
const lockstepLanes = 256

// addLowerBounds adds sign·LowerBound(run, qs[i]) to out[i] for every
// lane. Every lane takes the same ⌈log2 len(run)⌉ halving steps, so the
// lanes advance in lockstep: a step has no per-lane exit and issues one
// independent load per lane, which the CPU overlaps instead of waiting
// out one lane's chain of dependent loads after another. With kernel set
// and uint64 keys, the lanes up to the last multiple of 8 are searched
// by addLowerBoundsKernel; the Go rounds below take the rest, and every
// lane for uint32 keys or with kernel unset (the tests' oracle). The Go
// step reads a lane's position into a local and stores it back because a
// read-modify-write of pos[i] under the comparison compiles to a branch;
// this form compiles to a conditional move. lanes is scratch for the
// positions. An empty run costs nothing.
func addLowerBounds[K kv.Key](run, qs []K, out []int, sign int, lanes *[lockstepLanes]int, kernel bool) {
	if len(run) == 0 {
		return
	}
	if k := len(qs) &^ 7; kernel && k > 0 {
		if run64, ok := any(run).([]uint64); ok {
			addLowerBoundsKernel(run64, any(qs).([]uint64)[:k], out[:k], sign, lanes)
			qs, out = qs[k:], out[k:]
		}
	}
	for len(qs) > 0 {
		c := min(len(qs), lockstepLanes)
		q, pos, o := qs[:c], lanes[:c], out[:c]
		clear(pos)
		for n := len(run); n > 1; {
			half := n >> 1
			for i, x := range q {
				v := pos[i]
				if run[v+half-1] < x {
					v += half
				}
				pos[i] = v
			}
			n -= half
		}
		for i, x := range q {
			v := pos[i]
			if run[v] < x {
				v++
			}
			o[i] += sign * v
		}
		qs, out = qs[c:], out[c:]
	}
}

// addLowerBoundsKernel is addLowerBounds over a multiple of 8 lanes with
// every round, the final comparison (half = 1) included, in
// lockstepKernel.
func addLowerBoundsKernel(run, qs []uint64, out []int, sign int, lanes *[lockstepLanes]int) {
	for len(qs) > 0 {
		c := min(len(qs), lockstepLanes)
		q, pos, o := qs[:c], lanes[:c], out[:c]
		clear(pos)
		for n := len(run); n > 1; n -= n >> 1 {
			lockstepRound(run, q, pos, c, n>>1)
		}
		lockstepRound(run, q, pos, c, 1)
		for i, v := range pos {
			o[i] += sign * v
		}
		qs, out = qs[c:], out[c:]
	}
}

// lockstepRound runs lockstepKernel over lanes [0, n) once the static
// preconditions its unchecked loads rest on hold; the per-lane bound
// pos[i]+half <= len(run) is addLowerBoundsKernel's loop invariant.
func lockstepRound(run, q []uint64, pos []int, n, half int) {
	if n < 0 || n%8 != 0 || n > len(q) || n > len(pos) || half < 1 || half > len(run) {
		panic("concurrent: lockstep kernel precondition violated")
	}
	lockstepKernel(run, q, pos, n, half)
}

// rank is the logical lower-bound rank of q: the number of live keys < q.
func (s *snapshot[K]) rank(q K) int {
	return s.view.Find(q) + s.genRank(q)
}

// count is the number of live occurrences of q.
func (s *snapshot[K]) count(q K) int {
	n := s.view.Count(q)
	for _, g := range s.gens {
		n += countEq(g.ins, q) - countEq(g.dels, q)
	}
	return n
}

// lookup returns rank and live multiplicity with a single base-table
// probe (View.LookupCount) plus the generation corrections.
func (s *snapshot[K]) lookup(q K) (rank, count int) {
	rank, count = s.view.LookupCount(q)
	for _, g := range s.gens {
		count += countEq(g.ins, q) - countEq(g.dels, q)
	}
	return rank + s.genRank(q), count
}

// scan yields every live key in [a, b] in sorted order: the base run
// merged with the generations' inserts, with tombstones cancelling
// occurrences by value. fn returning false stops the scan.
func (s *snapshot[K]) scan(a, b K, fn func(k K) bool) {
	if b < a {
		return
	}
	base := s.view.Keys()
	bp := s.view.Find(a)
	ip := make([]int, len(s.gens))
	dp := make([]int, len(s.gens))
	for g, gen := range s.gens {
		ip[g] = kv.LowerBound(gen.ins, a)
		dp[g] = kv.LowerBound(gen.dels, a)
	}
	for {
		// The next distinct value is the smallest head among the base run
		// and the insert runs. Every in-range tombstone matches one of
		// those heads (it cancels an occurrence that exists below it), so
		// tombstone runs only ever advance on an exact value match.
		var cur K
		have := false
		if bp < len(base) && base[bp] <= b {
			cur, have = base[bp], true
		}
		for g, gen := range s.gens {
			if ip[g] < len(gen.ins) && gen.ins[ip[g]] <= b {
				if !have || gen.ins[ip[g]] < cur {
					cur, have = gen.ins[ip[g]], true
				}
			}
		}
		if !have {
			return
		}
		n := 0
		for bp < len(base) && base[bp] == cur {
			n++
			bp++
		}
		for g, gen := range s.gens {
			for ip[g] < len(gen.ins) && gen.ins[ip[g]] == cur {
				n++
				ip[g]++
			}
			for dp[g] < len(gen.dels) && gen.dels[dp[g]] == cur {
				n--
				dp[g]++
			}
		}
		for ; n > 0; n-- {
			if !fn(cur) {
				return
			}
		}
	}
}
