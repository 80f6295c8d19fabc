// Package rbs implements Radix Binary Search, the two-stage baseline from
// the SOSD benchmark the paper compares against (§4): a radix table maps a
// fixed-length key prefix to the range of all keys sharing that prefix, and
// a binary search runs on the narrowed range.
package rbs

import (
	"fmt"
	"math/bits"

	"repro/internal/kv"
	"repro/internal/search"
)

// Index is a built radix-binary-search structure over a sorted key slice.
type Index[K kv.Key] struct {
	keys  []K
	n     int
	rbits int
	shift uint
	table []int32 // prefix → first position with key prefix >= it
}

// New builds the radix table with the given prefix width (2^radixBits+1
// entries). radixBits 0 defaults to 18.
func New[K kv.Key](keys []K, radixBits int) (*Index[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("rbs: keys are not sorted")
	}
	if radixBits == 0 {
		radixBits = 18
	}
	if radixBits < 1 || radixBits > 28 {
		return nil, fmt.Errorf("rbs: radix bits %d out of range [1,28]", radixBits)
	}
	idx := &Index[K]{keys: keys, n: len(keys), rbits: radixBits}
	if idx.n == 0 {
		idx.table = []int32{0, 0}
		return idx, nil
	}
	keyBits := bits.Len64(uint64(keys[idx.n-1]))
	if keyBits < 1 {
		keyBits = 1
	}
	if idx.rbits > keyBits {
		idx.rbits = keyBits
	}
	idx.shift = uint(keyBits - idx.rbits)
	size := 1 << idx.rbits
	idx.table = make([]int32, size+1)
	prev := 0
	for i, k := range keys {
		p := int(uint64(k) >> idx.shift)
		if p > size-1 {
			p = size - 1
		}
		for prev <= p {
			idx.table[prev] = int32(i)
			prev++
		}
	}
	for ; prev <= size; prev++ {
		idx.table[prev] = int32(idx.n)
	}
	return idx, nil
}

// Find returns the smallest index i with keys[i] >= q.
func (idx *Index[K]) Find(q K) int {
	if idx.n == 0 {
		return 0
	}
	// Compare the prefix in uint64 before narrowing: with a zero shift
	// (narrow key domains) a huge query prefix overflows int.
	p64 := uint64(q) >> idx.shift
	if p64 >= uint64(len(idx.table)-1) {
		// Prefix beyond the table: q exceeds every indexed prefix.
		return idx.n
	}
	p := int(p64)
	lo, hi := int(idx.table[p]), int(idx.table[p+1])
	return search.BinaryRange(idx.keys, lo, hi, q)
}

// RadixBits returns the effective prefix width.
func (idx *Index[K]) RadixBits() int { return idx.rbits }

// SizeBytes returns the radix table footprint.
func (idx *Index[K]) SizeBytes() int { return len(idx.table) * 4 }

// Name identifies the index in benchmark output.
func (idx *Index[K]) Name() string { return "RBS" }

// Len returns the number of indexed keys.
func (idx *Index[K]) Len() int { return idx.n }

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised): one non-cached radix-table probe plus a binary search over
// the expected bucket width — the mean number of keys per occupied table
// slot, which is what a data-matching query distribution lands on.
func (idx *Index[K]) EstimateNs(l func(s int) float64) float64 {
	if idx.n == 0 {
		return 0
	}
	occupied := 0
	for p := 0; p < len(idx.table)-1; p++ {
		if idx.table[p+1] > idx.table[p] {
			occupied++
		}
	}
	if occupied < 1 {
		occupied = 1
	}
	bucket := idx.n / occupied
	if bucket < 1 {
		bucket = 1
	}
	return l(1) + l(bucket)
}
