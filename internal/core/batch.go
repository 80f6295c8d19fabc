package core

import (
	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/search"
)

// This file is the batched query engine. The scalar Find pays, per query, a
// virtual Model.Predict call, a width dispatch into the drift arrays, and a
// fully serialized chain of dependent cache misses (layer entry, then each
// probe of the local search). Batching restructures the same work as a
// staged pipeline over a chunk of queries:
//
//  1. predict the whole chunk in one PredictBatch call (the interface
//     dispatch is hoisted to once per chunk, the model parameters stay
//     in registers across the loop, and the key converts to float64
//     without a branch on its top bit);
//  2. gather the drift entries with one loop per packed width (the width
//     switch runs once per chunk; the loop calls nothing, and the gather
//     loads are independent, so their misses overlap);
//  3. search every lane's window in lockstep — each round issues one
//     independent load per lane before any comparison consumes one, and
//     moves the lane with a conditional move instead of a branch — so
//     the memory-level parallelism of the machine hides the latency the
//     scalar path pays serially.
//
// This is the group-prefetching scheme of the in-memory-index literature
// (SOSD-style batched harnesses; AMAC/group prefetch for hash and tree
// probes), expressed in portable Go: instead of prefetch intrinsics, the
// lockstep rounds keep a chunk's independent loads in flight together
// (range mode), and midpoint mode's touch pass loads every gallop's first
// line into a scratch slot before the scalar finish.
//
// FindBatch returns results bit-identical to scalar Find; the property
// tests in batch_test.go enforce this on every mode and configuration.

// batchChunk is the number of queries staged per pipeline pass. Chosen so
// the per-lane state (prediction, partition, window bounds, probe slot)
// fits comfortably in L1 while still giving the memory system far more
// independent misses than it can service concurrently.
const batchChunk = 256

// batchScratch is the per-chunk lane state (8.25 KiB for 8-byte keys). It
// is pooled on the Table (Table.scratch) so steady-state batches allocate
// nothing; every slot is written before it is read within a chunk, so a
// recycled scratch needs no zeroing. Each concurrent FindBatch gets its
// own instance from the pool.
type batchScratch[K kv.Key] struct {
	pred  [batchChunk]int   // stage 1: model predictions; stage 2 below M = N: partitions
	wlo   [batchChunk]int   // stage 2/3: window start, then search base
	wend  [batchChunk]int   // stage 2/3: window end (half-open), then length
	probe [batchChunk]K     // stage 3 (midpoint mode): touched key per lane
	lanes [batchChunk]uint8 // stage 3 (range mode): lanes wider than one key
}

// FindBatch answers lower-bound queries for every element of qs, writing
// result i into out[i]. It returns the result slice (out when it has
// capacity, a fresh slice otherwise). Results are bit-identical to calling
// Find on each query; only the schedule differs — see the pipeline
// description at the top of this file.
//
//shift:lockfree
func (t *Table[K]) FindBatch(qs []K, out []int) []int {
	if cap(out) >= len(qs) {
		out = out[:len(qs)]
	} else {
		out = make([]int, len(qs))
	}
	if t.n == 0 {
		clear(out)
		return out
	}
	st, ok := t.scratch.Get().(*batchScratch[K])
	if !ok {
		st = new(batchScratch[K])
	}
	for base := 0; base < len(qs); base += batchChunk {
		c := min(len(qs)-base, batchChunk)
		t.findChunk(qs[base:base+c], out[base:base+c], st)
	}
	t.scratch.Put(st)
	return out
}

// findChunk runs the staged pipeline over one chunk of at most batchChunk
// queries.
func (t *Table[K]) findChunk(qs []K, out []int, st *batchScratch[K]) {
	c := len(qs)
	pred := st.pred[:c]

	// Stage 1: predict the whole chunk (one interface dispatch).
	cdfmodel.PredictBatch(t.model, qs, pred)

	// Stage 2: partition ids are computed inside the drift gathers, one
	// loop per packed width.
	if t.mode == ModeRange {
		t.gatherWindows(pred, st.wlo[:c], st.wend[:c])
		t.probeWindows(qs, out, st)
		if !t.monotone {
			// Non-monotone model (§3.8): the window was only a hint.
			// Validate each result globally and fall back to exponential
			// search for the (rare) lanes whose true answer lies outside.
			for i, q := range qs {
				if !t.valid(out[i], q) {
					out[i] = search.Exponential(t.keys, out[i], q)
				}
			}
		}
		return
	}

	// Midpoint mode: gather the shifts, touch every start position so the
	// first line of each gallop is fetched with overlapping misses, then
	// finish each lane with the scalar exponential search.
	wlo := st.wlo[:c]
	t.gatherStarts(pred, wlo)
	keys := t.keys
	for i, s := range wlo {
		st.probe[i] = keys[kv.Clamp(s, 0, t.n-1)]
	}
	for i, q := range qs {
		out[i] = search.Exponential(keys, wlo[i], q)
	}
}

// gatherWindows computes, per lane, the clamped local-search window
// [wlo, wend) exactly as search.Window derives it from Table.window's
// bounds. Each lane reads lo[k] and lo[k+1], adjacent entries, so one
// miss fetches both; below M = N the span term is added in a second loop
// that touches no memory, from the partition the gather left in pred, in
// spanTerm's closed form: one more division per lane.
func (t *Table[K]) gatherWindows(pred, wlo, wend []int) {
	t.drift.gatherBounds(pred, wlo, wend, t.m, t.n)
	if t.m < t.n {
		st := t.spans()
		for i, k := range pred {
			wend[i] += st.of(k)
		}
	} else if t.m > t.n {
		for i, k := range pred {
			wend[i] += t.span(k)
		}
	}
	// Clamp to search.Window's semantics: lo into [0, n], inclusive hi cut
	// at n-1, then one slot past the window (§3.1) capped at n.
	n := t.n
	for i := range wlo {
		lo := wlo[i]
		if lo < 0 {
			lo = 0
		} else if lo > n {
			lo = n
		}
		hi := wend[i]
		if hi >= n-1 {
			hi = n - 1
		}
		end := hi + 1
		if end > n {
			end = n
		}
		wlo[i] = lo
		wend[i] = end
	}
}

// gatherStarts computes, per lane, the midpoint-corrected start position
// pred + shift.
func (t *Table[K]) gatherStarts(pred, wlo []int) {
	t.drift.gatherAdd(pred, wlo, t.m, t.n)
}

// probeWindows resolves every lane's window [wlo, wend) to its lower bound
// with one lockstep, branch-free search (Khuong & Morin's "Array Layouts
// for Comparison-Based Searching"). Each lane keeps a base and a length;
// every searching lane runs the same halving rounds, as many as the
// chunk's widest window needs, and each round moves the base with a
// conditional move instead of a branch on what is effectively a coin
// flip. The loads of one round are independent across lanes, so their
// misses overlap. A lane whose length has reached 1 re-reads a key
// already in L1; a final step against the base emits the answer.
//
// An empty window's answer is wlo itself: the lane is answered at once,
// with length 0 and base 0, so it never loads a line of its own. When
// fewer than a quarter of the lanes search (uniform queries over a sparse
// key range, where most windows are empty or one key wide), the rounds
// step only the lanes listed in st.lanes. Otherwise (queries that hit
// the keys) they step every lane in order, cheaper per lane, and the
// finished or empty ones re-read a line in L1.
func (t *Table[K]) probeWindows(qs []K, out []int, st *batchScratch[K]) {
	c := len(qs)
	keys := t.keys
	base, size, lanes := st.wlo[:c], st.wend[:c], st.lanes[:c]
	searching, widest := 0, 1
	for i := range base {
		w := size[i] - base[i]
		if w < 1 {
			out[i] = base[i]
			base[i], w = 0, 0
		}
		size[i] = w
		widest = max(widest, w)
		lanes[searching] = uint8(i)
		if w > 1 {
			searching++
		}
	}
	if 4*searching < c {
		for ; widest > 1; widest -= widest >> 1 {
			for _, i := range lanes[:searching] {
				n, v := size[i], base[i]
				h := n >> 1
				if keys[v+h] < qs[i] {
					v += h
				}
				base[i], size[i] = v, n-h
			}
		}
	}
	for ; widest > 1; widest -= widest >> 1 {
		for i, q := range qs {
			n, v := size[i], base[i]
			h := n >> 1
			if keys[v+h] < q {
				v += h
			}
			base[i], size[i] = v, n-h
		}
	}
	for i, q := range qs {
		if size[i] == 0 {
			continue
		}
		v := base[i]
		if keys[v] < q {
			v++
		}
		out[i] = v
	}
}
