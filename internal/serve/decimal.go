package serve

import (
	"math/bits"
	"slices"
)

// This file is the request path's decimal codec: the digit scanner that
// scanBatch and scanFindKey share, and the integer encoder of the 200
// answers. Served keys are drawn over the whole 64-bit domain, so almost
// all travel as 19 or 20 digits.
//
// The scanner reads eight bytes per 64-bit load, the SWAR technique of
// Langdale & Lemire, "Parsing Gigabytes of JSON per Second"
// (arXiv:1902.08318): one mask marks the word's non-digit bytes, so it
// both checks the digits and finds where the run ends, and three
// multiplies convert eight digits. Overflow is checked once per run, not
// once per digit. Anything it does not take goes to the caller's
// fallback, encoding/json and parseKey, which stay the authority on every
// other shape.

// maxKeyDigits is the length of the longest run scanDigits takes: 2^64−1
// has 20 digits.
const maxKeyDigits = 20

// scanDigits reads the run of ASCII digits at the start of b. When the run
// is 1 to 20 digits long and its value fits uint64 it returns the value
// and the run's length; otherwise n is 0. b[n], when there is one, is
// then the byte that ended the run.
//
// A run is read as whole words of 8 digits, then the word the run ends
// in. The digits before that last word number at most 16, so only its
// step, u·10^d + the d digits, can overflow: the high half of the
// 128-bit product and the carry of the sum say whether it did. That one
// check needs no branch on the run's leading digit at 20 digits, which
// on keys drawn over the whole uint64 domain (a third of them 20 digits
// long) would mispredict often.
func scanDigits[T string | []byte](b T) (u uint64, n int) {
	for {
		var w uint64 // b[n:n+8], little-endian: b[n] in the low byte
		if len(b)-n >= 8 {
			c := b[n : n+8]
			w = uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
				uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56
		} else {
			w = loadTail(b, n)
		}
		nd := nonDigits(w)
		if nd == 0 {
			if n == 2*8 { // 24 digits or more
				return 0, 0
			}
			u = u*1e8 + eightDigits(w)
			n += 8
			continue
		}
		d := bits.TrailingZeros64(nd) >> 3
		if d == 0 {
			return u, n // a run of 0, 8 or 16 digits
		}
		// The d digits move to the word's top bytes; the zero bytes
		// shifted in below them read as leading zeros.
		hi, lo := bits.Mul64(u, pow10[d])
		var carry uint64
		u, carry = bits.Add64(lo, eightDigits(w<<(uint(8-d)*8)), 0)
		if n += d; n > maxKeyDigits || hi|carry != 0 {
			return 0, 0
		}
		return u, n
	}
}

// loadTail returns the fewer than eight bytes of b from i on as scanDigits
// loads a word, the missing bytes as 0x00, a non-digit.
func loadTail[T string | []byte](b T, i int) uint64 {
	var w uint64
	for j := len(b) - 1; j >= i; j-- {
		w = w<<8 | uint64(b[j])
	}
	return w
}

// nonDigits returns w with bit 4 of each byte set when that byte is not an
// ASCII digit, and every other bit clear. A byte is a digit when its high
// nibble is 3 and its low nibble is at most 9 (adding 6 carries out of the
// nibble from 10 on). No step carries from one byte into the next.
func nonDigits(w uint64) uint64 {
	const hi, lo = 0xF0F0F0F0F0F0F0F0, 0x0F0F0F0F0F0F0F0F
	bad := (w&hi ^ 0x3030303030303030) | (w&lo+0x0606060606060606)&hi
	return (bad>>4 + lo) & 0x1010101010101010
}

// eightDigits converts the eight digits of w, its low byte the most
// significant, in three multiplies: adjacent digits into pairs, pairs
// into fours, fours into the eight. A 0x00 byte reads as the digit 0.
func eightDigits(w uint64) uint64 {
	w = (w & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
	w = (w & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (w & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// pow10 holds every power of ten a uint64 holds, 10^0 to 10^19.
var pow10 = [maxKeyDigits]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of u, 1 for 0. The bit
// length times log10(2) (1233/4096) is the digit count or one short.
func decimalLen(u uint64) int {
	u |= 1
	t := bits.Len64(u) * 1233 >> 12
	if u < pow10[t] {
		return t
	}
	return t + 1
}

// digitPairs is "00" to "99": the two digits of p at 2p.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendUint appends u in decimal, the bytes strconv.AppendUint(b, u, 10)
// appends. It sizes the number first and writes it in place, last digit
// pair first.
func appendUint(b []byte, u uint64) []byte {
	n := decimalLen(u)
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	d := b[len(b)-n:]
	i := n
	for u >= 100 {
		q := u / 100
		p := (u - q*100) * 2
		i -= 2
		d[i], d[i+1] = digitPairs[p], digitPairs[p+1]
		u = q
	}
	if u >= 10 {
		d[0], d[1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		d[0] = byte('0' + u)
	}
	return b
}

// appendInt appends v in decimal, the bytes strconv.AppendInt(b,
// int64(v), 10) appends.
func appendInt(b []byte, v int) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	return appendUint(b, u)
}
