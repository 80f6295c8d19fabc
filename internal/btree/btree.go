// Package btree implements an in-memory B+tree in the spirit of the STX
// B+tree [1], the classical range-index baseline of the paper's Table 2:
// bulk loading from sorted data, point and lower-bound lookups, ordered
// range iteration, and inserts with node splitting.
//
// Values are 64-bit payloads; the benchmark harness stores each key's
// position so lookups return ranks comparable with the other indexes.
package btree

import (
	"fmt"

	"repro/internal/kv"
)

// DefaultFanout is the default maximum number of keys per node: 16 keys of
// 8 bytes fills two cache lines per node, close to STX's default geometry.
const DefaultFanout = 16

type leaf[K kv.Key] struct {
	keys []K
	vals []uint64
	next *leaf[K]
}

type inner[K kv.Key] struct {
	// keys[i] is the smallest key reachable in kids[i+1]; kids has
	// len(keys)+1 children, each either *inner or *leaf.
	keys []K
	kids []any
}

// Tree is a B+tree keyed by K with uint64 values.
type Tree[K kv.Key] struct {
	root   any // *inner[K] or *leaf[K]; nil when empty
	first  *leaf[K]
	height int
	size   int
	fanout int
}

// New returns an empty tree with the given maximum keys per node (0 means
// DefaultFanout).
func New[K kv.Key](fanout int) (*Tree[K], error) {
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 3 {
		return nil, fmt.Errorf("btree: fanout %d too small (minimum 3)", fanout)
	}
	return &Tree[K]{fanout: fanout}, nil
}

// NewBulk bulk-loads a tree from sorted keys; vals[i] is the value for
// keys[i] (nil means store positions). Bulk loading packs leaves to ~90%%
// occupancy, as STX does.
func NewBulk[K kv.Key](keys []K, vals []uint64, fanout int) (*Tree[K], error) {
	t, err := New[K](fanout)
	if err != nil {
		return nil, err
	}
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("btree: keys are not sorted")
	}
	if vals != nil && len(vals) != len(keys) {
		return nil, fmt.Errorf("btree: %d values for %d keys", len(vals), len(keys))
	}
	n := len(keys)
	if n == 0 {
		return t, nil
	}
	per := t.fanout * 9 / 10
	if per < 1 {
		per = 1
	}
	// Build the leaf level.
	var leaves []*leaf[K]
	for at := 0; at < n; at += per {
		end := at + per
		if end > n {
			end = n
		}
		lf := &leaf[K]{
			keys: append([]K(nil), keys[at:end]...),
			vals: make([]uint64, end-at),
		}
		if vals != nil {
			copy(lf.vals, vals[at:end])
		} else {
			for i := range lf.vals {
				lf.vals[i] = uint64(at + i)
			}
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = lf
		}
		leaves = append(leaves, lf)
	}
	t.first = leaves[0]
	t.size = n
	t.height = 1
	// Build inner levels bottom-up.
	level := make([]any, len(leaves))
	firstKeys := make([]K, len(leaves))
	for i, lf := range leaves {
		level[i] = lf
		firstKeys[i] = lf.keys[0]
	}
	for len(level) > 1 {
		var nextLevel []any
		var nextFirst []K
		for at := 0; at < len(level); at += per {
			end := at + per
			if end > len(level) {
				end = len(level)
			}
			nd := &inner[K]{
				kids: append([]any(nil), level[at:end]...),
				keys: append([]K(nil), firstKeys[at+1:end]...),
			}
			nextLevel = append(nextLevel, nd)
			nextFirst = append(nextFirst, firstKeys[at])
		}
		level, firstKeys = nextLevel, nextFirst
		t.height++
	}
	t.root = level[0]
	return t, nil
}

// Len returns the number of stored entries.
func (t *Tree[K]) Len() int { return t.size }

// Name identifies the backend in benchmark output, matching the paper's
// Table 2 column label.
func (t *Tree[K]) Name() string { return "B+tree" }

// Find returns the lower-bound rank of q, assuming the tree was bulk-loaded
// with positions as values (NewBulk with nil vals). It is the rank adapter
// that lets the tree serve the repository-wide index contract
// (internal/index) natively.
func (t *Tree[K]) Find(q K) int {
	it := t.LowerBound(q)
	if !it.Valid() {
		return t.size
	}
	return int(it.Value())
}

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised): every level of the descent is one dependent non-cached
// node fetch plus a lower-bound search over up to fanout in-node keys,
// priced at L(fanout) under the machine's latency curve. (Pricing a level
// at bare L(1) systematically underestimates pointer-chasing descents and
// made the router prefer B+trees it then measured 2-4x slower than the
// learned alternatives.)
func (t *Tree[K]) EstimateNs(l func(s int) float64) float64 {
	if t.height == 0 {
		return 0
	}
	return float64(t.height) * l(t.fanout)
}

// SizeBytes approximates the tree's memory footprint.
func (t *Tree[K]) SizeBytes() int {
	kb := 8
	var zero K
	if _, ok := any(zero).(uint32); ok {
		kb = 4
	}
	total := 0
	var walk func(nd any)
	walk = func(nd any) {
		switch n := nd.(type) {
		case *leaf[K]:
			total += len(n.keys)*kb + len(n.vals)*8 + 24
		case *inner[K]:
			total += len(n.keys)*kb + len(n.kids)*16 + 24
			for _, kid := range n.kids {
				walk(kid)
			}
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return total
}

// descend routes to the rightmost leaf whose first key is <= q (upper-bound
// routing): the leaf holding the *last* occurrence of q. Used by Get,
// Insert and Delete. The path out-parameter records the inner chain.
func (t *Tree[K]) descend(q K, path *[]*inner[K]) *leaf[K] {
	nd := t.root
	for {
		switch n := nd.(type) {
		case *leaf[K]:
			return n
		case *inner[K]:
			if path != nil {
				*path = append(*path, n)
			}
			nd = n.kids[kv.UpperBound(n.keys, q)]
		default:
			return nil
		}
	}
}

// descendLeft routes to the leftmost leaf that can hold a key >= q
// (lower-bound routing). Duplicate runs may span leaves: an equal separator
// must send the search left of it, or the run's first occurrence is missed.
func (t *Tree[K]) descendLeft(q K) *leaf[K] {
	nd := t.root
	for {
		switch n := nd.(type) {
		case *leaf[K]:
			return n
		case *inner[K]:
			nd = n.kids[kv.LowerBound(n.keys, q)]
		default:
			return nil
		}
	}
}

// Get returns the value stored for q (the first occurrence of a duplicate
// run). Like Delete, it tolerates separators gone stale after deletions by
// walking the leaf chain past exhausted leaves.
func (t *Tree[K]) Get(q K) (uint64, bool) {
	if t.root == nil {
		return 0, false
	}
	for lf := t.descendLeft(q); lf != nil; lf = lf.next {
		i := kv.LowerBound(lf.keys, q)
		if i == len(lf.keys) {
			continue
		}
		if lf.keys[i] == q {
			return lf.vals[i], true
		}
		return 0, false
	}
	return 0, false
}

// Iterator walks entries in key order.
type Iterator[K kv.Key] struct {
	lf *leaf[K]
	i  int
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator[K]) Valid() bool { return it.lf != nil && it.i < len(it.lf.keys) }

// Key returns the current key; call only when Valid.
func (it *Iterator[K]) Key() K { return it.lf.keys[it.i] }

// Value returns the current value; call only when Valid.
func (it *Iterator[K]) Value() uint64 { return it.lf.vals[it.i] }

// Next advances to the next entry in key order.
func (it *Iterator[K]) Next() {
	it.i++
	for it.lf != nil && it.i >= len(it.lf.keys) {
		it.lf = it.lf.next
		it.i = 0
	}
}

// LowerBound returns an iterator at the first entry with key >= q.
func (t *Tree[K]) LowerBound(q K) Iterator[K] {
	if t.root == nil {
		return Iterator[K]{}
	}
	lf := t.descendLeft(q)
	it := Iterator[K]{lf: lf, i: kv.LowerBound(lf.keys, q)}
	for it.lf != nil && it.i >= len(it.lf.keys) {
		it.lf = it.lf.next
		it.i = 0
	}
	return it
}

// Min returns an iterator at the smallest entry.
func (t *Tree[K]) Min() Iterator[K] {
	it := Iterator[K]{lf: t.first}
	for it.lf != nil && len(it.lf.keys) == 0 {
		it.lf = it.lf.next
	}
	return it
}

// Insert adds (k, v) to the tree. Duplicate keys are allowed; the new entry
// is placed at the end of the duplicate run (upper-bound position), so
// lower-bound iteration still sees the oldest entry first.
func (t *Tree[K]) Insert(k K, v uint64) {
	if t.root == nil {
		lf := &leaf[K]{keys: []K{k}, vals: []uint64{v}}
		t.root = lf
		t.first = lf
		t.height = 1
		t.size = 1
		return
	}
	var path []*inner[K]
	lf := t.descend(k, &path)
	i := kv.UpperBound(lf.keys, k)
	lf.keys = insertAt(lf.keys, i, k)
	lf.vals = insertAt(lf.vals, i, v)
	t.size++
	if len(lf.keys) <= t.fanout {
		return
	}
	// Split the leaf and propagate.
	mid := len(lf.keys) / 2
	right := &leaf[K]{
		keys: append([]K(nil), lf.keys[mid:]...),
		vals: append([]uint64(nil), lf.vals[mid:]...),
		next: lf.next,
	}
	lf.keys = lf.keys[:mid:mid]
	lf.vals = lf.vals[:mid:mid]
	lf.next = right
	t.propagateSplit(path, lf, right, right.keys[0])
}

// propagateSplit inserts the (sepKey, right) pair into the parent chain,
// splitting inner nodes as needed.
func (t *Tree[K]) propagateSplit(path []*inner[K], left, right any, sepKey K) {
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		p := path[lvl]
		// Position of left within p.kids.
		at := 0
		for at < len(p.kids) && p.kids[at] != left {
			at++
		}
		p.keys = insertAt(p.keys, at, sepKey)
		p.kids = insertAt(p.kids, at+1, right)
		if len(p.keys) <= t.fanout {
			return
		}
		mid := len(p.keys) / 2
		sepKey = p.keys[mid]
		rn := &inner[K]{
			keys: append([]K(nil), p.keys[mid+1:]...),
			kids: append([]any(nil), p.kids[mid+1:]...),
		}
		p.keys = p.keys[:mid:mid]
		p.kids = p.kids[: mid+1 : mid+1]
		left, right = any(p), any(rn)
	}
	// Root split.
	t.root = &inner[K]{keys: []K{sepKey}, kids: []any{left, right}}
	t.height++
}

// Delete removes the first occurrence of key k and reports whether anything
// was removed. Deletion is lazy: emptied leaves stay in the tree (iterators
// and searches skip them) and no rebalancing is performed — reads stay
// correct, occupancy may drop, as with deferred rebalancing in practice.
// Separator keys may go stale after deletions, so the search starts at the
// leftmost candidate leaf and walks the leaf chain past exhausted leaves.
func (t *Tree[K]) Delete(k K) bool {
	if t.root == nil {
		return false
	}
	for lf := t.descendLeft(k); lf != nil; lf = lf.next {
		i := kv.LowerBound(lf.keys, k)
		if i == len(lf.keys) {
			continue // all keys here < k (or leaf emptied earlier)
		}
		if lf.keys[i] != k {
			return false
		}
		lf.keys = append(lf.keys[:i], lf.keys[i+1:]...)
		lf.vals = append(lf.vals[:i], lf.vals[i+1:]...)
		t.size--
		if t.size == 0 {
			t.root = nil
			t.first = nil
			t.height = 0
		}
		return true
	}
	return false
}

// insertAt inserts v at index i.
func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
