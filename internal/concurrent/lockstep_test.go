package concurrent

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kv"
)

// TestLockstepKernelMatchesLoop runs addLowerBounds with the kernel (where
// this CPU has it) and with the Go round alone over the same lanes, and
// both must equal per-lane kv.LowerBound. The lane counts are every count
// from 1 to 600: multiples of 8 and not, one chunk and three. The runs are
// lengths 1, 2, 3, 7, 8, 9, every 2^k ± 1 and 20,000, duplicate-heavy
// runs, and runs holding 0, 2^63 − 1, 2^63 and 2^64 − 1, which a signed
// comparison orders wrongly; the queries include those four values and
// values below and above the whole run. uint32 keys take the Go round
// either way, and so does every lane on a CPU without the kernel. The log
// says whether this CPU ran the kernel.
func TestLockstepKernelMatchesLoop(t *testing.T) {
	if haveKernel {
		t.Log("lockstep kernel ran: AVX-512F present, opmask and ZMM state enabled")
	} else {
		t.Log("lockstep kernel NOT exercised: no AVX-512F with ZMM state on this CPU (or not amd64); only the Go round ran")
	}
	t.Run("uint64", testLockstepKernel[uint64])
	t.Run("uint32", testLockstepKernel[uint32])
}

func testLockstepKernel[K kv.Key](t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	top := kv.MaxKey[K]()
	mid := top/2 + 1 // 2^63 for uint64: the sign bit
	edges := []K{0, 1, mid - 1, mid, mid + 1, top - 1, top}
	draw := func() K {
		switch r := rng.Intn(8); {
		case r == 0:
			return edges[rng.Intn(len(edges))]
		case r < 3:
			return mid + K(rng.Intn(64)) - 32 // straddles the sign bit
		case r < 5:
			return K(rng.Intn(64)) // dense: duplicates
		default:
			return K(rng.Uint64())
		}
	}
	lengths := []int{1, 2, 3, 7, 8, 9, 20_000}
	for k := 2; k <= 14; k++ {
		lengths = append(lengths, 1<<k-1, 1<<k+1)
	}
	var runs [][]K
	for _, n := range lengths {
		run := make([]K, n)
		for i := range run {
			run[i] = draw()
		}
		slices.Sort(run)
		runs = append(runs, run)
	}
	runs = append(runs,
		slices.Repeat([]K{7}, 1000),
		slices.Repeat([]K{mid}, 9),
		slices.Repeat([]K{top}, 17),
		slices.Repeat([]K{0}, 5),
		[]K{0, mid - 1, mid, top},
		// Mostly above the sign bit: a signed compare reads them as negative.
		append(slices.Repeat([]K{mid - 1}, 3), slices.Repeat([]K{mid + 3}, 300)...),
	)
	const maxLanes = 600
	var lanes [lockstepLanes]int
	for ri, run := range runs {
		qs := append([]K(nil), edges...)
		if run[0] > 0 {
			qs = append(qs, run[0]-1) // below the whole run
		}
		if run[len(run)-1] < top {
			qs = append(qs, run[len(run)-1]+1) // above the whole run
		}
		for len(qs) < maxLanes {
			if rng.Intn(2) == 0 {
				qs = append(qs, draw())
			} else {
				qs = append(qs, run[rng.Intn(len(run))]+K(rng.Intn(3))-1)
			}
		}
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		want := make([]int, maxLanes)
		for i, q := range qs {
			want[i] = kv.LowerBound(run, q)
		}
		base := make([]int, maxLanes)
		for i := range base {
			base[i] = rng.Intn(1 << 20)
		}
		kernel, loop := make([]int, maxLanes), make([]int, maxLanes)
		for n := 1; n <= maxLanes; n++ {
			copy(kernel, base)
			copy(loop, base)
			addLowerBounds(run, qs[:n], kernel[:n], 1, &lanes, haveKernel)
			addLowerBounds(run, qs[:n], loop[:n], -1, &lanes, false)
			for i := range n {
				if kernel[i]-base[i] != want[i] || base[i]-loop[i] != want[i] {
					t.Fatalf("run %d (len %d), %d lanes, lane %d (q=%d): kernel %d, loop %d, want %d",
						ri, len(run), n, i, qs[i], kernel[i]-base[i], base[i]-loop[i], want[i])
				}
			}
		}
	}
}

// TestLockstepRoundPreconditions: the kernel's wrapper refuses every
// violated static precondition before the unchecked kernel runs.
func TestLockstepRoundPreconditions(t *testing.T) {
	run, q, pos := make([]uint64, 16), make([]uint64, 16), make([]int, 16)
	for _, c := range []struct {
		name    string
		n, half int
		q       []uint64
		pos     []int
	}{
		{"n not a multiple of 8", 7, 1, q, pos},
		{"negative n", -8, 1, q, pos},
		{"n past q", 16, 1, q[:8], pos},
		{"n past pos", 16, 1, q, pos[:8]},
		{"half 0", 8, 0, q, pos},
		{"half past the run", 8, 17, q, pos},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: lockstepRound did not panic", c.name)
				}
			}()
			lockstepRound(run, c.q, c.pos, c.n, c.half)
		}()
	}
}

// FuzzLockstep: over any sorted run and any queries, the kernel's
// lockstep search (the Go round's on a CPU without it), the Go round's and
// per-lane kv.LowerBound agree, for uint64 keys and (the Go round both
// ways) their uint32 truncations. The
// input's 8-byte words are the run, reduced modulo dup+1 when dup is not
// zero so that duplicates are common; the queries are the key type's
// extremes and sign-bit neighbours, run keys and their neighbours and
// fresh draws, lanes%601 of them.
func FuzzLockstep(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint16(9), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), 1<<63), uint16(600), uint8(0))
	f.Add(slices.Repeat([]byte{0x5A}, 8*300), uint16(257), uint8(3))
	f.Add(slices.Repeat([]byte{0x80, 0, 0, 0, 0, 0, 0, 0x7F}, 40), uint16(64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lanes uint16, dup uint8) {
		if len(data) > 8*25_000 {
			data = data[:8*25_000]
		}
		run := make([]uint64, 0, len(data)/8+1)
		for w := data; len(w) > 0; {
			var b [8]byte
			w = w[copy(b[:], w):]
			v := binary.LittleEndian.Uint64(b[:])
			if dup != 0 {
				v %= uint64(dup) + 1
			}
			run = append(run, v)
		}
		slices.Sort(run)
		x := uint64(len(data))*0x9E3779B97F4A7C15 + uint64(lanes)<<8 + uint64(dup)
		qs := make([]uint64, int(lanes)%601)
		for i := range qs {
			x = x*0xD1342543DE82EF95 + 1
			switch r := x >> 61; {
			case r == 0:
				qs[i] = []uint64{0, 1<<63 - 1, 1 << 63, math.MaxUint64}[x>>20&3]
			case r < 4 && len(run) > 0:
				qs[i] = run[(x>>20)%uint64(len(run))] + x>>10&3 - 1
			default:
				qs[i] = x ^ x>>29
			}
		}
		checkLockstep(t, run, qs)
		run32, qs32 := make([]uint32, len(run)), make([]uint32, len(qs))
		for i, v := range run {
			run32[i] = uint32(v)
		}
		for i, v := range qs {
			qs32[i] = uint32(v)
		}
		slices.Sort(run32)
		checkLockstep(t, run32, qs32)
	})
}

func checkLockstep[K kv.Key](t *testing.T, run, qs []K) {
	t.Helper()
	var lanes [lockstepLanes]int
	kernel, loop := make([]int, len(qs)), make([]int, len(qs))
	addLowerBounds(run, qs, kernel, 1, &lanes, haveKernel)
	addLowerBounds(run, qs, loop, 1, &lanes, false)
	for i, q := range qs {
		if want := kv.LowerBound(run, q); kernel[i] != want || loop[i] != want {
			t.Fatalf("len(run) %d, %d lanes, lane %d (q=%d): kernel %d, loop %d, want %d",
				len(run), len(qs), i, q, kernel[i], loop[i], want)
		}
	}
}

// BenchmarkLockstep times addLowerBounds with the kernel and with the Go
// round alone, in ns per lane, over 256-lane batches of uniform uint64
// queries: a run pair the size of lookup-gens' sealed run (5,376 inserts
// and 1,792 tombstones), one the size of its write head (768 + 256), and
// all four runs, which is genRankBatch's work on that stack.
func BenchmarkLockstep(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	sorted := func(n int) []uint64 {
		run := make([]uint64, n)
		for i := range run {
			run[i] = rng.Uint64()
		}
		slices.Sort(run)
		return run
	}
	sealed := [][]uint64{sorted(5376), sorted(1792)}
	head := [][]uint64{sorted(768), sorted(256)}
	qs := make([]uint64, 1<<16)
	for i := range qs {
		qs[i] = rng.Uint64()
	}
	for _, c := range []struct {
		name string
		runs [][]uint64
	}{
		{"sealed", sealed},
		{"head", head},
		{"stack", append(slices.Clone(sealed), head...)},
	} {
		for _, kernel := range []bool{true, false} {
			name := c.name + "/loop"
			if kernel {
				if !haveKernel {
					continue
				}
				name = c.name + "/kernel"
			}
			b.Run(name, func(b *testing.B) {
				const batch = 256
				var lanes [lockstepLanes]int
				out := make([]int, batch)
				for i := 0; i < b.N; i += batch {
					q := qs[i&(len(qs)-1):][:batch]
					for r, run := range c.runs {
						addLowerBounds(run, q, out, 1-2*(r&1), &lanes, kernel)
					}
				}
			})
		}
	}
}
