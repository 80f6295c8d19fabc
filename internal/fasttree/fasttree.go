// Package fasttree provides cache-optimized static search trees standing in
// for FAST (Kim et al. [20]), the paper's strongest algorithmic baseline.
//
// FAST is a read-only binary search tree whose elements are laid out to
// match the cache-line and SIMD geometry of the CPU. Portable Go has no
// SIMD, so this package implements the two layout ideas that give FAST its
// cache behaviour (the property the paper's comparisons rest on — §2.2:
// "FAST keeps more hot keys in the cache"):
//
//   - Eytzinger: the BFS layout of a complete binary tree in one array;
//     the top levels of the tree share a handful of cache lines, so the
//     first ~log(N)−3 comparisons are cache-resident.
//   - Blocked: an implicit static B-tree with one cache line per node
//     (16 uint32 or 8 uint64 keys), the line-blocking FAST applies.
//
// Both return lower-bound ranks in the original sorted array. See DESIGN.md
// §2 for the substitution note.
package fasttree

import (
	"fmt"

	"repro/internal/kv"
)

// Eytzinger is a BFS-ordered complete binary search tree.
type Eytzinger[K kv.Key] struct {
	tree []K // 1-based BFS order; tree[0] unused
	rank []int32
	n    int
}

// NewEytzinger builds the layout from sorted keys.
func NewEytzinger[K kv.Key](keys []K) (*Eytzinger[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("fasttree: keys are not sorted")
	}
	n := len(keys)
	e := &Eytzinger[K]{
		tree: make([]K, n+1),
		rank: make([]int32, n+1),
		n:    n,
	}
	i := 0
	e.fill(keys, &i, 1)
	return e, nil
}

// fill performs the in-order traversal of the implicit tree shape, writing
// sorted keys into BFS positions.
func (e *Eytzinger[K]) fill(keys []K, next *int, node int) {
	if node > e.n {
		return
	}
	e.fill(keys, next, 2*node)
	e.tree[node] = keys[*next]
	e.rank[node] = int32(*next)
	*next++
	e.fill(keys, next, 2*node+1)
}

// Find returns the smallest rank i with keys[i] >= q. The descent tracks
// the last node where it went left; only that node's rank is read, keeping
// the rank array out of the hot path.
func (e *Eytzinger[K]) Find(q K) int {
	if e.n == 0 {
		return 0
	}
	i := 1
	bestNode := 0
	for i <= e.n {
		if e.tree[i] >= q {
			bestNode = i
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	if bestNode == 0 {
		return e.n
	}
	return int(e.rank[bestNode])
}

// SizeBytes reports the layout footprint.
func (e *Eytzinger[K]) SizeBytes() int {
	return len(e.tree)*keyBytes[K]() + len(e.rank)*4
}

// Name identifies the index in benchmark output.
func (e *Eytzinger[K]) Name() string { return "FAST-eytzinger" }

// Blocked is an implicit static B-tree with cache-line-sized nodes: the
// line-blocked layout FAST uses. Node b holds B sorted keys; its children
// are nodes b*(B+1)+1 .. b*(B+1)+B+1 in BFS block order.
type Blocked[K kv.Key] struct {
	blocks []K // node-major; padded with maxKey sentinels
	rank   []int32
	b      int // keys per node (cache line / key size)
	nodes  int
	n      int
}

// NewBlocked builds the blocked layout from sorted keys. Keys per node is
// fixed at one 64-byte cache line worth of keys.
func NewBlocked[K kv.Key](keys []K) (*Blocked[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("fasttree: keys are not sorted")
	}
	n := len(keys)
	b := 64 / keyBytes[K]()
	nodes := (n + b - 1) / b
	if nodes == 0 {
		nodes = 1
	}
	t := &Blocked[K]{
		blocks: make([]K, nodes*b),
		rank:   make([]int32, nodes*b),
		b:      b,
		nodes:  nodes,
		n:      n,
	}
	var maxK K
	maxK = ^maxK
	for i := range t.blocks {
		t.blocks[i] = maxK
		t.rank[i] = int32(n)
	}
	next := 0
	t.fill(keys, &next, 0)
	return t, nil
}

// fill writes sorted keys into the implicit B-tree shape in order: for node
// b, child i precedes separator key i.
func (t *Blocked[K]) fill(keys []K, next *int, node int) {
	if node >= t.nodes || *next >= len(keys) {
		return
	}
	for slot := 0; slot < t.b; slot++ {
		t.fill(keys, next, node*(t.b+1)+slot+1)
		if *next >= len(keys) {
			return
		}
		t.blocks[node*t.b+slot] = keys[*next]
		t.rank[node*t.b+slot] = int32(*next)
		*next++
	}
	t.fill(keys, next, node*(t.b+1)+t.b+1)
}

// Find returns the smallest rank i with keys[i] >= q.
func (t *Blocked[K]) Find(q K) int {
	if t.n == 0 {
		return 0
	}
	best := t.n
	node := 0
	for node < t.nodes {
		base := node * t.b
		// Within-node lower bound: one cache line, branch-light scan.
		slot := 0
		for slot < t.b && t.blocks[base+slot] < q {
			slot++
		}
		if slot < t.b && t.blocks[base+slot] >= q {
			if r := int(t.rank[base+slot]); r < best {
				best = r
			}
		}
		node = node*(t.b+1) + slot + 1
	}
	return best
}

// SizeBytes reports the layout footprint.
func (t *Blocked[K]) SizeBytes() int {
	return len(t.blocks)*keyBytes[K]() + len(t.rank)*4
}

// Name identifies the index in benchmark output.
func (t *Blocked[K]) Name() string { return "FAST" }

// Len returns the number of indexed keys.
func (t *Blocked[K]) Len() int { return t.n }

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised): the descent visits one cache-line node per level of the
// implicit (B+1)-ary tree, each a non-cached probe priced at L(1).
func (t *Blocked[K]) EstimateNs(l func(s int) float64) float64 {
	if t.n == 0 {
		return 0
	}
	levels := 0.0
	for span := 1; span <= t.nodes; span *= t.b + 1 {
		levels++
	}
	return levels * l(1)
}

// keyBytes returns the byte width of the key type.
func keyBytes[K kv.Key]() int {
	var zero K
	switch any(zero).(type) {
	case uint32:
		return 4
	default:
		return 8
	}
}
