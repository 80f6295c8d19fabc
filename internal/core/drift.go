package core

// driftArray stores the layer's drift entries at the narrowest integer
// width that fits, realising §3.9's observation that the entry width can
// follow the model's maximum error (16-bit entries when the error fits in
// ±2^15, and so on). A table holds one, in one of two shapes:
//
//   - range mode: 2·M entries, the <lo, hi> bounds of partition k
//     interleaved at 2k and 2k+1 ([lo₀,hi₀,lo₁,hi₁,…]), read with pair
//     and gatherPairs. The fused layout is cache-conscious: the
//     correction step of a lookup touches a single cache line where split
//     lo/hi arrays would touch two.
//   - midpoint mode: M entries, the shifts Δ̄k, read with get and
//     gatherAdd.
//
// Exactly one backing slice is non-nil; width caches which one, so
// lookups dispatch on a byte instead of probing slice headers for
// nil-ness on every query.
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

// packDriftsWidth packs vals at an explicit entry width (the build tracks
// the magnitude while generating the values, so packing needs no extra
// reduction pass).
func packDriftsWidth(vals []int64, width uint8) driftArray {
	switch width {
	case 1:
		out := make([]int8, len(vals))
		for i, v := range vals {
			out[i] = int8(v)
		}
		return driftArray{width: 1, w8: out}
	case 2:
		out := make([]int16, len(vals))
		for i, v := range vals {
			out[i] = int16(v)
		}
		return driftArray{width: 2, w16: out}
	case 4:
		out := make([]int32, len(vals))
		for i, v := range vals {
			out[i] = int32(v)
		}
		return driftArray{width: 4, w32: out}
	default:
		out := make([]int64, len(vals))
		copy(out, vals)
		return driftArray{width: 8, w64: out}
	}
}

// packPairs interleaves loW/hiW at the given common entry width (the max of
// the two split widths, so every value fits).
func packPairs(loW, hiW []int64, width uint8) driftArray {
	m := len(loW)
	switch width {
	case 1:
		out := make([]int8, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = int8(loW[k]), int8(hiW[k])
		}
		return driftArray{width: 1, w8: out}
	case 2:
		out := make([]int16, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = int16(loW[k]), int16(hiW[k])
		}
		return driftArray{width: 2, w16: out}
	case 4:
		out := make([]int32, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = int32(loW[k]), int32(hiW[k])
		}
		return driftArray{width: 4, w32: out}
	default:
		out := make([]int64, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = loW[k], hiW[k]
		}
		return driftArray{width: 8, w64: out}
	}
}

// get returns the midpoint-mode shift of partition k.
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

// pair returns the range-mode <lo, hi> drift bounds of partition k — two
// adjacent loads from one cache line (entries are at most 8 bytes, so the
// 16-byte pair never spans more than it would split).
func (d *driftArray) pair(k int) (lo, hi int) {
	switch d.width {
	case 1:
		return int(d.w8[2*k]), int(d.w8[2*k+1])
	case 2:
		return int(d.w16[2*k]), int(d.w16[2*k+1])
	case 4:
		return int(d.w32[2*k]), int(d.w32[2*k+1])
	default:
		return int(d.w64[2*k]), int(d.w64[2*k+1])
	}
}

// len returns the number of entries (2·M in range mode, M in midpoint
// mode).
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

// entriesPerPartition is the number of drift entries a partition holds:
// the <lo, hi> pair in range mode, one shift in midpoint mode.
func entriesPerPartition(mode Mode) int64 {
	if mode == ModeRange {
		return 2
	}
	return 1
}

// gatherPairs writes wlo[i] = pred[i] + lo[part(pred[i])] and wend[i] =
// pred[i] + hi[part(pred[i])] with the packed width dispatched once per
// call. The fused layout makes the two gathers one: each lane loads its
// <lo, hi> pair from adjacent entries on one line, halving the independent
// miss count of the split-layout gather.
func (d *driftArray) gatherPairs(pred, wlo, wend []int, part func(int) int) {
	switch d.width {
	case 1:
		a := d.w8
		for i, p := range pred {
			k := part(p)
			wlo[i], wend[i] = p+int(a[2*k]), p+int(a[2*k+1])
		}
	case 2:
		a := d.w16
		for i, p := range pred {
			k := part(p)
			wlo[i], wend[i] = p+int(a[2*k]), p+int(a[2*k+1])
		}
	case 4:
		a := d.w32
		for i, p := range pred {
			k := part(p)
			wlo[i], wend[i] = p+int(a[2*k]), p+int(a[2*k+1])
		}
	default:
		a := d.w64
		for i, p := range pred {
			k := part(p)
			wlo[i], wend[i] = p+int(a[2*k]), p+int(a[2*k+1])
		}
	}
}
