// Package search implements the on-the-fly search algorithms the paper uses
// both as baselines (Table 2: BS, IS, TIP) and as the "last-mile" local
// search of a learned index (§2.1, Fig. 1a: linear, binary, exponential).
//
// Every function returns lower-bound semantics: the smallest index i in
// [0, len(keys)] with keys[i] >= q. All are property-tested against
// kv.LowerBound.
package search

import "repro/internal/kv"

// Binary is the classic branchy binary search over the whole array (the
// paper's "BS" baseline, STL-style lower_bound).
func Binary[K kv.Key](keys []K, q K) int {
	return BinaryRange(keys, 0, len(keys), q)
}

// BinaryRange is lower_bound restricted to the half-open index range
// [lo, hi). It returns a value in [lo, hi]: hi means no key in the range is
// >= q. It is the bounded local search used when a Shift-Table provides a
// guaranteed window (§3.8).
func BinaryRange[K kv.Key](keys []K, lo, hi int, q K) int {
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

// Branchless is a branch-free lower_bound: each step halves the candidate
// range with a masked add rather than a taken/not-taken branch, the
// standard trick for avoiding branch mispredictions on uniform queries.
// Every query over n keys takes the same ⌈log2 n⌉ steps.
//
// The loop's step is written as a 0/1 flag and a mask (lo += half & -b)
// because that is the form the Go compiler lowers to SETcc/NEG/AND. The
// plain forms, `if keys[lo+half-1] < q { lo += half }` or a conditional
// assignment of lo, update the loop-carried lo under the comparison, and
// inside the loop the compiler keeps those as a conditional jump (JCS on
// amd64), which mispredicts on about half of all steps. The last step,
// outside the loop, compiles to a CMOV as written.
func Branchless[K kv.Key](keys []K, q K) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	lo := 0
	for n > 1 {
		half := n >> 1
		var b int
		if keys[lo+half-1] < q {
			b = 1
		}
		lo += half & -b
		n -= half
	}
	if keys[lo] < q {
		lo++
	}
	return lo
}

// LinearFrom performs the paper's linear local search (Fig. 1a): starting
// from a predicted position it scans towards the true position, in either
// direction. pos is clamped into [0, len(keys)-1].
func LinearFrom[K kv.Key](keys []K, pos int, q K) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	pos = kv.Clamp(pos, 0, n-1)
	if keys[pos] < q {
		for pos < n && keys[pos] < q {
			pos++
		}
		return pos
	}
	for pos > 0 && keys[pos-1] >= q {
		pos--
	}
	return pos
}

// LinearRange scans the window [lo, hi) left to right and returns the first
// index with keys[i] >= q, or hi if none. It is the local search the paper
// selects when the Shift-Table window is below the linear-to-binary
// threshold (Alg. 1).
func LinearRange[K kv.Key](keys []K, lo, hi int, q K) int {
	for lo < hi && keys[lo] < q {
		lo++
	}
	return lo
}

// Exponential performs unbounded exponential (galloping) search from a
// predicted position (Bentley & Yao [3]; the paper's local search of choice
// when no guaranteed window is available, §3.8). pos is clamped into the
// array.
func Exponential[K kv.Key](keys []K, pos int, q K) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	pos = kv.Clamp(pos, 0, n-1)
	if keys[pos] < q {
		// Gallop right: widen until keys[pos+bound] >= q or the end.
		bound := 1
		for pos+bound < n && keys[pos+bound] < q {
			bound <<= 1
		}
		lo := pos + bound>>1 + 1
		hi := pos + bound
		if hi > n {
			hi = n
		}
		return BinaryRange(keys, lo, hi, q)
	}
	// Gallop left: widen until keys[pos-bound] < q or the start.
	bound := 1
	for pos-bound >= 0 && keys[pos-bound] >= q {
		bound <<= 1
	}
	hi := pos - bound>>1
	lo := pos - bound + 1
	if lo < 0 {
		lo = 0
	}
	return BinaryRange(keys, lo, hi, q)
}

// WindowThreshold is the linear-to-binary local search threshold from the
// paper's Alg. 1 (§3.8: "We do linear search if the range is smaller than a
// threshold (8 keys, in our experiments)").
const WindowThreshold = 8

// Window searches the inclusive window [lo, hi] with the paper's Alg. 1
// policy: linear search for short windows, binary otherwise. Like the other
// functions it returns lower-bound semantics over [lo, hi+1]; the caller
// guarantees the answer lies there (§3.1: the result is within the range or
// at the position just after it).
func Window[K kv.Key](keys []K, lo, hi int, q K) int {
	n := len(keys)
	lo = kv.Clamp(lo, 0, n)
	if hi >= n-1 {
		hi = n - 1
	}
	end := hi + 1 // may search one past the window (§3.1)
	if end > n {
		end = n
	}
	if end-lo <= WindowThreshold {
		return LinearRange(keys, lo, end, q)
	}
	return BinaryRange(keys, lo, end, q)
}
