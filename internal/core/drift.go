package core

// driftArray stores per-partition drift values at the narrowest integer
// width that fits, realising §3.9's observation that the entry width can
// follow the model's maximum error (16-bit entries when the error fits in
// ±2^15, and so on). Exactly one backing slice is non-nil; width caches
// which one, so lookups dispatch on a byte instead of probing slice headers
// for nil-ness on every query.
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

// maxAbs64 returns the largest absolute value in vals.
func maxAbs64(vals []int64) int64 {
	var m int64
	for _, v := range vals {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// packDrifts selects the narrowest width that holds every value.
func packDrifts(vals []int64) driftArray {
	return packDriftsWidth(vals, driftWidth(maxAbs64(vals)))
}

// packDriftsWidth packs vals at an explicit entry width (callers that
// tracked the magnitude during generation skip the extra reduction pass).
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

// get returns the drift for partition k.
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

// len returns the number of partitions.
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
	return d.len() * d.entryBits() / 8
}

// entryBits returns the selected per-entry width in bits.
func (d *driftArray) entryBits() int {
	return int(d.width) * 8
}

// driftPairs is the fused cache-conscious layout for range mode: the
// per-partition <lo, hi> drift bounds interleaved as [lo₀,hi₀,lo₁,hi₁,…]
// at one packed width, so the correction step of a lookup touches a single
// cache line where split lo/hi arrays would touch two. Exactly one backing slice is non-nil, of length 2·M; width caches
// the dispatch byte exactly as driftArray does.
type driftPairs struct {
	width uint8 // entry width in bytes (1, 2, 4, 8); 0 for an empty array
	w8    []int8
	w16   []int16
	w32   []int32
	w64   []int64
}

// packPairs interleaves loW/hiW at the given common entry width (the max of
// the two split widths, so every value fits).
func packPairs(loW, hiW []int64, width uint8) driftPairs {
	m := len(loW)
	switch width {
	case 1:
		out := make([]int8, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = int8(loW[k]), int8(hiW[k])
		}
		return driftPairs{width: 1, w8: out}
	case 2:
		out := make([]int16, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = int16(loW[k]), int16(hiW[k])
		}
		return driftPairs{width: 2, w16: out}
	case 4:
		out := make([]int32, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = int32(loW[k]), int32(hiW[k])
		}
		return driftPairs{width: 4, w32: out}
	default:
		out := make([]int64, 2*m)
		for k := 0; k < m; k++ {
			out[2*k], out[2*k+1] = loW[k], hiW[k]
		}
		return driftPairs{width: 8, w64: out}
	}
}

// pair returns the <lo, hi> drift bounds for partition k — two adjacent
// loads from one cache line (entries are at most 8 bytes, so the 16-byte
// pair never spans more than it would split).
func (d *driftPairs) pair(k int) (lo, hi int) {
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

// len returns the number of partitions (half the backing-slice length).
func (d *driftPairs) len() int {
	switch d.width {
	case 1:
		return len(d.w8) / 2
	case 2:
		return len(d.w16) / 2
	case 4:
		return len(d.w32) / 2
	default:
		return len(d.w64) / 2
	}
}

// sizeBytes returns the memory footprint of the backing slice.
func (d *driftPairs) sizeBytes() int {
	return 2 * d.len() * int(d.width)
}

// entryBits returns the selected per-entry width in bits.
func (d *driftPairs) entryBits() int {
	return int(d.width) * 8
}

// gatherAdd writes wlo[i] = pred[i] + lo[part(pred[i])] and wend[i] =
// pred[i] + hi[part(pred[i])] with the packed width dispatched once per
// call. The fused layout makes the two gathers one: each lane loads its
// <lo, hi> pair from adjacent entries on one line, halving the independent
// miss count of the split-layout gather.
func (d *driftPairs) gatherAdd(pred, wlo, wend []int, part func(int) int) {
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
