package core

import "repro/internal/mapped"

// driftArray stores the layer's drift entries at the narrowest integer
// width that fits, realising §3.9's observation that the entry width can
// follow the model's maximum error (16-bit entries when the error fits in
// ±2^15, and so on). A table holds one, in one of two shapes:
//
//   - range mode: M+1 lower bounds lo₀…lo_M, read with bounds and
//     gatherBounds. Partition k's window runs from lo[k] to
//     lo[k+1]+span(k) (DESIGN.md §8): the next partition's lower bound
//     is this one's upper bound, so no upper bound is stored, and the two
//     entries a lookup reads are adjacent. Entry M closes the last
//     partition.
//   - midpoint mode: M entries, the shifts Δ̄k, read with get and
//     gatherAdd.
//
// Exactly one backing slice is non-nil; width caches which one, so
// lookups dispatch on a byte instead of probing slice headers for
// nil-ness on every query, and the batch gathers once per chunk, into
// one generic loop per width.
type driftArray struct {
	width uint8 // entry width in bytes (1, 2, 4, 8); 0 for an empty array
	w8    []int8
	w16   []int16
	w32   []int32
	w64   []int64
}

// driftWidth returns the narrowest entry width (in bytes) that holds every
// value whose absolute magnitude is at most maxAbs.
func driftWidth(maxAbs int64) uint8 {
	switch {
	case maxAbs <= 127:
		return 1
	case maxAbs <= 32767:
		return 2
	case maxAbs <= 1<<31-1:
		return 4
	default:
		return 8
	}
}

// makeDriftArray returns an array of n zero entries of the given width
// (1, 2, 4 or 8 bytes), a mapped.MakeHuge array, which lookups read on
// huge pages (DESIGN.md §8).
func makeDriftArray(width uint8, n int) driftArray {
	switch width {
	case 1:
		return driftArray{width: 1, w8: mapped.MakeHuge[int8](n)}
	case 2:
		return driftArray{width: 2, w16: mapped.MakeHuge[int16](n)}
	case 4:
		return driftArray{width: 4, w32: mapped.MakeHuge[int32](n)}
	default:
		return driftArray{width: 8, w64: mapped.MakeHuge[int64](n)}
	}
}

// store writes vals into the entries from the first on; every value must
// fit the width.
func (d *driftArray) store(vals []int64) {
	switch d.width {
	case 1:
		for i, v := range vals {
			d.w8[i] = int8(v)
		}
	case 2:
		for i, v := range vals {
			d.w16[i] = int16(v)
		}
	case 4:
		for i, v := range vals {
			d.w32[i] = int32(v)
		}
	default:
		copy(d.w64, vals)
	}
}

// get returns entry k: partition k's midpoint shift, or its range-mode
// lower bound.
func (d *driftArray) get(k int) int {
	switch d.width {
	case 1:
		return int(d.w8[k])
	case 2:
		return int(d.w16[k])
	case 4:
		return int(d.w32[k])
	default:
		return int(d.w64[k])
	}
}

// bounds returns the range-mode entries of partition k, lo[k] and
// lo[k+1]: two adjacent loads, from one cache line unless the pair
// straddles a line boundary.
func (d *driftArray) bounds(k int) (lo, next int) {
	switch d.width {
	case 1:
		return int(d.w8[k]), int(d.w8[k+1])
	case 2:
		return int(d.w16[k]), int(d.w16[k+1])
	case 4:
		return int(d.w32[k]), int(d.w32[k+1])
	default:
		return int(d.w64[k]), int(d.w64[k+1])
	}
}

// len returns the number of entries (M+1 in range mode, M in midpoint
// mode, 0 for an empty layer).
func (d *driftArray) len() int {
	switch d.width {
	case 1:
		return len(d.w8)
	case 2:
		return len(d.w16)
	case 4:
		return len(d.w32)
	default:
		return len(d.w64)
	}
}

// sizeBytes returns the memory footprint of the backing slice.
func (d *driftArray) sizeBytes() int {
	return d.len() * int(d.width)
}

// entryBits returns the selected per-entry width in bits.
func (d *driftArray) entryBits() int {
	return int(d.width) * 8
}

// driftEntries is the number of drift entries of an m-partition layer:
// m+1 lower bounds in range mode, m shifts in midpoint mode, none for an
// empty layer.
func driftEntries(mode Mode, m int) int64 {
	if mode == ModeRange && m > 0 {
		return int64(m) + 1
	}
	return int64(m)
}

// gatherBounds writes wlo[i] = pred[i] + lo[k] and wend[i] = pred[i] +
// lo[k+1], k = [pred[i]·m/n] (Table.partitionOf), with the packed width
// dispatched once per call. The two entries are adjacent, so each lane's
// loads share a line. Below M = N it leaves k in pred[i], so the caller
// adds the span without dividing for k again; at M = N, k is pred[i].
func (d *driftArray) gatherBounds(pred, wlo, wend []int, m, n int) {
	switch d.width {
	case 1:
		gatherBoundsOf(d.w8, pred, wlo, wend, m, n)
	case 2:
		gatherBoundsOf(d.w16, pred, wlo, wend, m, n)
	case 4:
		gatherBoundsOf(d.w32, pred, wlo, wend, m, n)
	default:
		gatherBoundsOf(d.w64, pred, wlo, wend, m, n)
	}
}

// gatherAdd writes out[i] = pred[i] + d[k], k = [pred[i]·m/n], with the
// packed width dispatched once per call instead of once per query.
func (d *driftArray) gatherAdd(pred, out []int, m, n int) {
	switch d.width {
	case 1:
		gatherAddOf(d.w8, pred, out, m, n)
	case 2:
		gatherAddOf(d.w16, pred, out, m, n)
	case 4:
		gatherAddOf(d.w32, pred, out, m, n)
	default:
		gatherAddOf(d.w64, pred, out, m, n)
	}
}

// gatherBoundsOf and gatherAddOf are the per-width loops. Each lane's
// loads depend only on its prediction, so the misses of a chunk overlap;
// the loop bodies call nothing, so nothing stops the core from running
// ahead to the next lanes' loads. At M = N the prediction is the
// partition.
func gatherBoundsOf[E int8 | int16 | int32 | int64](a []E, pred, wlo, wend []int, m, n int) {
	wlo, wend = wlo[:len(pred)], wend[:len(pred)]
	if m == n {
		for i, p := range pred {
			wlo[i], wend[i] = p+int(a[p]), p+int(a[p+1])
		}
		return
	}
	mm, nn := int64(m), int64(n)
	for i, p := range pred {
		k := int(int64(p) * mm / nn)
		wlo[i], wend[i] = p+int(a[k]), p+int(a[k+1])
		pred[i] = k
	}
}

func gatherAddOf[E int8 | int16 | int32 | int64](a []E, pred, out []int, m, n int) {
	out = out[:len(pred)]
	if m == n {
		for i, p := range pred {
			out[i] = p + int(a[p])
		}
		return
	}
	mm, nn := int64(m), int64(n)
	for i, p := range pred {
		out[i] = p + int(a[int(int64(p)*mm/nn)])
	}
}
