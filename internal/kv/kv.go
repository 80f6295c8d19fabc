// Package kv defines the key types shared by every index in this repository
// and reference implementations of the search primitives the indexes are
// verified against.
//
// Following the SOSD benchmark setup the paper uses, keys are unsigned
// integers (32- or 64-bit) kept physically sorted (a clustered index), and a
// range query is answered by locating its lower bound and scanning forward.
package kv

// Key is the constraint satisfied by every key type in the repository.
// The 32-bit datasets use uint32 so that key arrays genuinely occupy 4-byte
// slots; cache behaviour is part of what the benchmarks measure.
type Key interface {
	~uint32 | ~uint64
}

// LowerBound returns the smallest index i in [0, len(keys)] such that
// keys[i] >= q, using a straightforward branchy binary search. It is the
// reference implementation: every index and search algorithm in the
// repository is property-tested against it.
func LowerBound[K Key](keys []K, q K) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the smallest index i in [0, len(keys)] such that
// keys[i] > q.
func UpperBound[K Key](keys []K, q K) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FirstOccurrence maps every position i to the index of the first key in the
// run of duplicates containing keys[i]. This realises the paper's §3.2
// definition of the empirical CDF for lower-bound queries: N·F(x) is the
// index of the first key among duplicates of x.
func FirstOccurrence[K Key](keys []K) []int {
	pos := make([]int, len(keys))
	for i := range keys {
		if i > 0 && keys[i] == keys[i-1] {
			pos[i] = pos[i-1]
		} else {
			pos[i] = i
		}
	}
	return pos
}

// IsSorted reports whether keys are in non-decreasing order.
func IsSorted[K Key](keys []K) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// Dedup returns keys with exact duplicates removed, preserving order.
// Indexes that cannot represent duplicates (ART, per the paper) are built on
// the deduplicated key set.
func Dedup[K Key](keys []K) []K {
	if len(keys) == 0 {
		return nil
	}
	out := make([]K, 0, len(keys))
	out = append(out, keys[0])
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// HasDuplicates reports whether the sorted key slice contains duplicates.
// Backends that cannot represent duplicates (ART, per the paper's Table 2
// N/A policy) consult it when deciding applicability.
func HasDuplicates[K Key](keys []K) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return true
		}
	}
	return false
}

// MaxKey returns the largest value of the key type: a range query's
// upper bound b == MaxKey has no b+1, so it ends at the last key.
func MaxKey[K Key]() K {
	var zero K
	return ^zero
}

// Clamp restricts v to the inclusive range [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Width returns the byte width of the key type.
func Width[K Key]() int {
	var zero K
	if _, ok := any(zero).(uint32); ok {
		return 4
	}
	return 8
}
