// Package art implements the Adaptive Radix Tree of Leis et al. [25], an
// algorithmic baseline of the paper's Table 2.
//
// Keys are fixed-length big-endian integers (8 bytes for uint64, 4 for
// uint32); inner nodes adapt among the classic Node4/Node16/Node48/Node256
// layouts and apply path compression. As the paper notes, ART does not
// support duplicate keys — Insert of an existing key replaces its value,
// and the benchmark harness reports ART as N/A on datasets with duplicates,
// matching Table 2.
package art

import (
	"fmt"

	"repro/internal/kv"
)

// Tree is an adaptive radix tree mapping fixed-width integer keys to uint64
// values.
type Tree[K kv.Key] struct {
	root  node
	size  int
	width int // key bytes
}

// New returns an empty tree.
func New[K kv.Key]() *Tree[K] {
	var zero K
	w := 8
	if _, ok := any(zero).(uint32); ok {
		w = 4
	}
	return &Tree[K]{width: w}
}

// NewBulk builds a tree from sorted distinct keys; vals[i] is stored for
// keys[i] (nil stores positions). Duplicate keys are rejected, matching the
// paper's note that ART does not support them.
func NewBulk[K kv.Key](keys []K, vals []uint64) (*Tree[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("art: keys are not sorted")
	}
	if vals != nil && len(vals) != len(keys) {
		return nil, fmt.Errorf("art: %d values for %d keys", len(vals), len(keys))
	}
	t := New[K]()
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			return nil, fmt.Errorf("art: duplicate key %v (ART does not support duplicates)", k)
		}
		v := uint64(i)
		if vals != nil {
			v = vals[i]
		}
		t.Insert(k, v)
	}
	return t, nil
}

// Len returns the number of stored keys.
func (t *Tree[K]) Len() int { return t.size }

// Name identifies the index in benchmark output.
func (t *Tree[K]) Name() string { return "ART" }

// Find returns the lower-bound rank of q, assuming the tree was bulk-loaded
// with positions as values (NewBulk with nil vals): the rank adapter that
// serves the repository-wide index contract (internal/index) natively.
func (t *Tree[K]) Find(q K) int {
	_, v, ok := t.LowerBound(q)
	if !ok {
		return t.size
	}
	return int(v)
}

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised): a descent touches roughly one node per key byte (path
// compression shortens this; radix-width pruning shortens it further on
// dense domains), each a non-cached probe priced at L(1).
func (t *Tree[K]) EstimateNs(l func(s int) float64) float64 {
	if t.size == 0 {
		return 0
	}
	depth := float64(t.width) / 2 // empirical: compression halves the byte path
	return depth * l(1)
}

// bytesOf encodes k as a big-endian byte string of the tree's key width.
func (t *Tree[K]) bytesOf(k K) [8]byte {
	var b [8]byte
	v := uint64(k)
	for i := t.width - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b
}

// node is one of *leaf, *node4, *node16, *node48, *node256.
type node any

type leafNode[K kv.Key] struct {
	key K
	kb  [8]byte
	val uint64
}

// header carries the path-compression prefix shared by all inner layouts.
type header struct {
	prefix []byte
}

type node4 struct {
	header
	n        int
	keys     [4]byte
	children [4]node
}

type node16 struct {
	header
	n        int
	keys     [16]byte
	children [16]node
}

type node48 struct {
	header
	n        int
	index    [256]int8 // -1 = empty, else slot in children
	children [48]node
}

type node256 struct {
	header
	n        int
	children [256]node
}

// Insert stores (k, v), replacing the value if k is already present.
func (t *Tree[K]) Insert(k K, v uint64) {
	lf := &leafNode[K]{key: k, kb: t.bytesOf(k), val: v}
	added := false
	t.root = t.insert(t.root, lf, 0, &added)
	if added {
		t.size++
	}
}

func (t *Tree[K]) insert(n node, lf *leafNode[K], depth int, added *bool) node {
	if n == nil {
		*added = true
		return lf
	}
	if old, ok := n.(*leafNode[K]); ok {
		if old.key == lf.key {
			old.val = lf.val
			return old
		}
		// Split: common prefix between the two leaves from depth.
		common := 0
		for old.kb[depth+common] == lf.kb[depth+common] {
			common++
		}
		nn := &node4{header: header{prefix: append([]byte(nil), lf.kb[depth:depth+common]...)}}
		nn.addChild(old.kb[depth+common], old)
		nn.addChild(lf.kb[depth+common], lf)
		*added = true
		return nn
	}
	h := headerOf(n)
	// Match the compressed prefix.
	mismatch := 0
	for mismatch < len(h.prefix) && h.prefix[mismatch] == lf.kb[depth+mismatch] {
		mismatch++
	}
	if mismatch < len(h.prefix) {
		// Split the prefix at the mismatch.
		nn := &node4{header: header{prefix: append([]byte(nil), h.prefix[:mismatch]...)}}
		oldByte := h.prefix[mismatch]
		h.prefix = append([]byte(nil), h.prefix[mismatch+1:]...)
		nn.addChild(oldByte, n)
		nn.addChild(lf.kb[depth+mismatch], lf)
		*added = true
		return nn
	}
	depth += len(h.prefix)
	b := lf.kb[depth]
	if child := findChild(n, b); child != nil {
		*child = t.insert(*child, lf, depth+1, added)
		return n
	}
	*added = true
	return addChildGrow(n, b, lf)
}

// Get returns the value stored for k.
func (t *Tree[K]) Get(k K) (uint64, bool) {
	kb := t.bytesOf(k)
	n := t.root
	depth := 0
	for n != nil {
		if lf, ok := n.(*leafNode[K]); ok {
			if lf.key == k {
				return lf.val, true
			}
			return 0, false
		}
		h := headerOf(n)
		for i := 0; i < len(h.prefix); i++ {
			if h.prefix[i] != kb[depth+i] {
				return 0, false
			}
		}
		depth += len(h.prefix)
		child := findChild(n, kb[depth])
		if child == nil {
			return 0, false
		}
		n = *child
		depth++
	}
	return 0, false
}

// LowerBound returns the smallest stored key >= q along with its value.
func (t *Tree[K]) LowerBound(q K) (key K, val uint64, ok bool) {
	lf := t.lowerBound(t.root, t.bytesOf(q), 0)
	if lf == nil {
		return key, 0, false
	}
	return lf.key, lf.val, true
}

func (t *Tree[K]) lowerBound(n node, qb [8]byte, depth int) *leafNode[K] {
	if n == nil {
		return nil
	}
	if lf, ok := n.(*leafNode[K]); ok {
		if cmpBytes(lf.kb[:t.width], qb[:t.width]) >= 0 {
			return lf
		}
		return nil
	}
	h := headerOf(n)
	// Compare the compressed prefix against the query bytes.
	for i := 0; i < len(h.prefix); i++ {
		switch {
		case h.prefix[i] > qb[depth+i]:
			return t.minimum(n) // whole subtree sorts after q
		case h.prefix[i] < qb[depth+i]:
			return nil // whole subtree sorts before q
		}
	}
	depth += len(h.prefix)
	b := qb[depth]
	if child := findChild(n, b); child != nil {
		if r := t.lowerBound(*child, qb, depth+1); r != nil {
			return r
		}
	}
	// First child with byte > b.
	if next := nextChild(n, b); next != nil {
		return t.minimum(next)
	}
	return nil
}

// minimum returns the leftmost leaf of a subtree.
func (t *Tree[K]) minimum(n node) *leafNode[K] {
	for {
		switch nd := n.(type) {
		case *leafNode[K]:
			return nd
		case *node4:
			n = nd.children[0]
		case *node16:
			n = nd.children[0]
		case *node48:
			for b := 0; b < 256; b++ {
				if nd.index[b] >= 0 {
					n = nd.children[nd.index[b]]
					break
				}
			}
		case *node256:
			for b := 0; b < 256; b++ {
				if nd.children[b] != nil {
					n = nd.children[b]
					break
				}
			}
		default:
			return nil
		}
	}
}

// Min returns the smallest stored key.
func (t *Tree[K]) Min() (key K, val uint64, ok bool) {
	lf := t.minimum(t.root)
	if lf == nil {
		return key, 0, false
	}
	return lf.key, lf.val, true
}

// SizeBytes approximates the tree's memory footprint.
func (t *Tree[K]) SizeBytes() int {
	total := 0
	var walk func(n node)
	walk = func(n node) {
		switch nd := n.(type) {
		case *leafNode[K]:
			total += 24
		case *node4:
			total += 16 + len(nd.prefix) + 4 + 4*16
			for i := 0; i < nd.n; i++ {
				walk(nd.children[i])
			}
		case *node16:
			total += 16 + len(nd.prefix) + 16 + 16*16
			for i := 0; i < nd.n; i++ {
				walk(nd.children[i])
			}
		case *node48:
			total += 16 + len(nd.prefix) + 256 + 48*16
			for b := 0; b < 256; b++ {
				if nd.index[b] >= 0 {
					walk(nd.children[nd.index[b]])
				}
			}
		case *node256:
			total += 16 + len(nd.prefix) + 256*16
			for b := 0; b < 256; b++ {
				if nd.children[b] != nil {
					walk(nd.children[b])
				}
			}
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return total
}

func cmpBytes(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func headerOf(n node) *header {
	switch nd := n.(type) {
	case *node4:
		return &nd.header
	case *node16:
		return &nd.header
	case *node48:
		return &nd.header
	case *node256:
		return &nd.header
	}
	return nil
}
