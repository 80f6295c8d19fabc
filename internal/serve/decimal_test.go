package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kv"
)

// scanTakes reports whether key, as the one key of a canonical /v1/batch
// body and as a canonical /v1/find query, takes each scanner rather than
// the fallback, checking that a taken key reads as strconv.ParseUint
// reads it.
func scanTakes[K kv.Key](t *testing.T, key string) (batch, find bool) {
	t.Helper()
	want, _ := strconv.ParseUint(key, 10, 64)
	keys, batch := scanBatch([]byte(`{"keys":["`+key+`"]}`), []K(nil), 4096)
	if batch && (len(keys) != 1 || uint64(keys[0]) != want) {
		t.Errorf("scanBatch(%q) = %v, want [%d]", key, keys, want)
	}
	k, find := scanFindKey[K]("key=" + key)
	if find && uint64(k) != want {
		t.Errorf("scanFindKey(key=%s) = %d, want %d", key, k, want)
	}
	return batch, find
}

// TestScannersTakeCanonicalKeys: every canonical key of 1 to 20 digits
// that fits uint64 and K takes the scanner in scanBatch and scanFindKey;
// the keys the 20-digit rule refuses, and runs of 21 digits or more, go to
// the fallback. A key that falls back silently is still answered right,
// so only this test sees the fast path lost.
func TestScannersTakeCanonicalKeys(t *testing.T) {
	take := []string{
		"0", "7", "10", "99999999", "100000000", "1234567890123456",
		"9999999999999999999", "10000000000000000000", "18446744073709551615",
		"00000000000000000000", "01844674407370955161", "00000000000000000007",
	}
	for d := 1; d <= 19; d++ {
		take = append(take, strings.Repeat("9", d), "1"+strings.Repeat("0", d-1), strings.Repeat("0", d))
	}
	for _, k := range QueryPool(5, 100_000, 0) {
		take = append(take, strconv.FormatUint(k, 10))
	}
	for _, key := range take {
		if batch, find := scanTakes[uint64](t, key); !batch || !find {
			t.Fatalf("uint64 key %s: scanBatch took it %v, scanFindKey %v; want both", key, batch, find)
		}
	}
	refuse := []string{
		"18446744073709551616", "18446744073709551619", "19999999999999999999", "99999999999999999999",
		"000000000000000000001", strings.Repeat("0", 21), strings.Repeat("0", 24) + "1", strings.Repeat("1", 40),
	}
	for lead := '2'; lead <= '9'; lead++ {
		refuse = append(refuse, string(lead)+strings.Repeat("0", 19))
	}
	for _, key := range refuse {
		if batch, find := scanTakes[uint64](t, key); batch || find {
			t.Fatalf("uint64 key %s: scanBatch took it %v, scanFindKey %v; want neither", key, batch, find)
		}
	}
	for _, key := range []string{"0", "4294967295", "00000000004294967295"} {
		if batch, find := scanTakes[uint32](t, key); !batch || !find {
			t.Fatalf("uint32 key %s: scanBatch took it %v, scanFindKey %v; want both", key, batch, find)
		}
	}
	for _, key := range []string{"4294967296", "18446744073709551615"} {
		if batch, find := scanTakes[uint32](t, key); batch || find {
			t.Fatalf("uint32 key %s: scanBatch took it %v, scanFindKey %v; want neither", key, batch, find)
		}
	}
}

// FuzzScanDigits: for any bytes, scanDigits over the bytes and over the
// same string takes the leading digit run exactly when it is 1 to 20
// digits long and strconv.ParseUint reads it, with ParseUint's value.
func FuzzScanDigits(f *testing.F) {
	for _, s := range []string{
		"", "0", "7\"", "12345678", "123456789", "1234567812345678", "12345678123456789,",
		"18446744073709551615", "18446744073709551616\"", "99999999999999999999", "09999999999999999999",
		"000000000000000000001", "1/", "1:", "1\x00", "1\xb0", "\xff1", "a", "4294967296",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		run := 0
		for run < len(b) && '0' <= b[run] && b[run] <= '9' {
			run++
		}
		u, n := scanDigits(b)
		if us, ns := scanDigits(string(b)); us != u || ns != n {
			t.Fatalf("%q: scanDigits on the string (%d, %d), on the bytes (%d, %d)", b, us, ns, u, n)
		}
		want, err := strconv.ParseUint(string(b[:run]), 10, 64)
		if run >= 1 && run <= maxKeyDigits && err == nil {
			if n != run || u != want {
				t.Fatalf("%q: scanDigits = (%d, %d), want (%d, %d)", b, u, n, want, run)
			}
		} else if n != 0 {
			t.Fatalf("%q: scanDigits = (%d, %d), want n = 0 for a run of %d (%v)", b, u, n, run, err)
		}
	})
}

// FuzzAnswerEncoders: for any ranks and version, the append encoders write
// exactly the bytes json.Encoder writes for the answer shapes, appended
// after whatever the buffer held.
func FuzzAnswerEncoders(f *testing.F) {
	for _, v := range []int{0, 1, 9, 10, 99, 100, 12345678, math.MaxInt, -1, -10, math.MinInt} {
		f.Add(v, -v, uint64(v))
	}
	// Both sides of every digit-count step, where decimalLen's estimate
	// from the bit length changes.
	for _, p := range pow10 {
		f.Add(int(p%math.MaxInt), int(p%math.MaxInt)-1, p-1)
		f.Add(-int(p%math.MaxInt), int(p%math.MaxInt)+1, p)
	}
	for s := range 64 {
		u := uint64(1) << s
		f.Add(int(u-1), -int(u-1), u-1)
		f.Add(int(u), int(u+1), u+1)
	}
	f.Add(7, 3, uint64(math.MaxUint64))
	encode := func(t *testing.T, v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, lo, hi int, tag uint64) {
		const prefix = "xyz"
		check := func(name string, got []byte, want string) {
			if string(got) != prefix+want {
				t.Fatalf("%s(%d, %d, %d) = %q, want %q", name, lo, hi, tag, got, prefix+want)
			}
		}
		// A buffer with no room to spare, so every number grows it.
		buf := func() []byte { return append(make([]byte, 0, len(prefix)), prefix...) }
		check("appendFind", appendFind(buf(), lo, tag), encode(t, findResponse{Rank: lo, Version: tag}))
		check("appendRange", appendRange(buf(), lo, hi, tag), encode(t, rangeResponse{LoRank: lo, HiRank: hi, Count: hi - lo, Version: tag}))
		ranks := []int{lo, hi, int(tag), -int(tag)}
		check("appendBatch", appendBatch(buf(), ranks, tag), encode(t, batchResponse{Ranks: ranks, Version: tag}))
	})
}
