// Package fingerprint implements LaSAGNA's Rabin-Karp fingerprints and the
// data-parallel kernels of the map phase (Section III-A).
//
// Each fingerprint is 128 bits wide: two independent rolling hashes with
// different radixes and prime moduli, exactly as Section IV-B specifies,
// because a single hash yields false-positive overlap edges on
// high-coverage data. Suffix fingerprints are derived arithmetically from
// the prefix fingerprints and place values (Fig. 6) without rescanning
// the read:
//
//	S[i] = (P[n-1] - P[i-1]*sigma^(n-i)) mod q
//
// Both moduli are large primes; base codes are offset by one so that the
// all-A prefix family does not collapse to a single fingerprint value.
//
// # Device charge versus host execution
//
// On the GPU the prefix fingerprints are a Hillis-Steele inclusive scan
// (Fig. 5): one thread block per read, ceil(log2 n) doubling steps per
// hash component, each touching every element once. That is what the
// kernels charge to the device. The host computes the same values with
// the sequential Horner recurrence P[i] = P[i-1]*sigma + d[i], one pass
// over the read for both components, because a simulated lock-step scan
// does log2(n) times the arithmetic for an identical answer. The same
// split holds for gpu.SortPairs, which charges LSD radix passes and
// sorts MSD-first on the host. The scan itself is kept as the test
// oracle the kernels' values and charges are pinned against.
//
// # Hot-path arithmetic
//
// The recurrence runs once per base for every read in the dataset, so
// the modular multiply-add is the hottest operation in the map phase.
// Both primes were chosen (by the paper, conveniently) to admit
// division-free reduction:
//
//   - PrimeA = 2^61-1 is Mersenne and the radix is 5, so acc*5 + d fits
//     in 64 bits and folds with one shift, mask and add (2^61 ≡ 1).
//   - PrimeB = 2^64-59: 2^64 ≡ 59, so the high product word of acc*7
//     folds in via one extra 64x64 multiply by 59 (mulmodB).
//
// The suffix derivation multiplies by arbitrary place values and uses
// the general folds (mulmodA, mulmodB). The generic division-based
// mulmod builds the place-value table and is the reference the tests
// compare the folds against. Base digits are 1..4, strictly below both
// primes, so the per-base encode needs no reduction at all.
package fingerprint

import (
	"math/bits"

	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/kv"
)

// Params defines one rolling hash: a radix (a small prime larger than the
// alphabet size, per Section III-A) and a large prime modulus.
type Params struct {
	Radix uint64
	Prime uint64
}

// The two hash components of the 128-bit fingerprint. PrimeA is the
// Mersenne prime 2^61-1; PrimeB is the largest prime below 2^64.
var (
	ParamsA = Params{Radix: 5, Prime: 2305843009213693951}
	ParamsB = Params{Radix: 7, Prime: 18446744073709551557}
)

// KeySpaceHi is the size of the value space of a fingerprint's high
// component (kv.Key.Hi is the first hash modulo ParamsA.Prime): the
// interval synthetic sort keys draw Hi from to look like real tuples.
const KeySpaceHi = 2305843009213693951

const (
	mersenne61 = uint64(1)<<61 - 1    // ParamsA.Prime
	primeB     = 18446744073709551557 // ParamsB.Prime = 2^64 - 59
	primeBFold = 59                   // 2^64 mod primeB
)

// mulmod returns a*b mod m using a 128-bit intermediate product and a
// hardware divide. It is the generic reference path: the kernels use the
// shift-free reductions below, which the tests pin against this one.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// mulmodA returns a*b mod 2^61-1 for a,b < 2^61-1 without dividing.
// With p = 2^61-1, 2^64 ≡ 8 and 2^61 ≡ 1 (mod p), so the 128-bit product
// hi·2^64 + lo folds to hi·8 + (lo>>61) + (lo&p). hi < 2^58, so
// hi<<3 | lo>>61 is exact and below 2^61; one conditional subtract
// finishes the reduction.
func mulmodA(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	t := (hi<<3 | lo>>61) + (lo & mersenne61)
	if t >= mersenne61 {
		t -= mersenne61
	}
	return t
}

// mulmodB returns a*b mod 2^64-59 for a,b < 2^64-59 without dividing.
// With p = 2^64-59, 2^64 ≡ 59 (mod p): the product hi·2^64 + lo folds to
// hi·59 + lo, and hi·59 (itself up to 2^70) folds once more through its
// own high word, which is at most 58 — so the second fold adds at most
// 59·59 and two conditional fixups complete the reduction.
func mulmodB(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	h2, l2 := bits.Mul64(hi, primeBFold)
	s, c := bits.Add64(lo, l2, 0)
	t, c2 := bits.Add64(s, (h2+c)*primeBFold, 0)
	if c2 != 0 {
		t += primeBFold
	} else if t >= primeB {
		t -= primeB
	}
	return t
}

// submod returns a-b mod m for a,b < m.
func submod(a, b, m uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + (m - b)
}

// encode maps a 2-bit base code to its hash digit. The +1 keeps prefixes
// of different lengths from colliding when the leading bases encode to
// zero. Digits are 1..4, below both primes, so no reduction is needed.
func encode(code byte) uint64 { return uint64(code) + 1 }

// Table holds the precomputed place values M[i] = radix^i mod prime for
// both hash components, computed once per run and reused by every kernel
// launch (the paper precomputes M before launching the map kernels).
type Table struct {
	params [2]Params
	place  [2][]uint64 // place[h][i] = radix_h^i mod prime_h
	maxLen int
}

// NewTable precomputes place values for reads up to maxLen bases.
func NewTable(maxLen int) *Table {
	t := &Table{params: [2]Params{ParamsA, ParamsB}, maxLen: maxLen}
	for h := 0; h < 2; h++ {
		p := t.params[h]
		place := make([]uint64, maxLen+1)
		place[0] = 1 % p.Prime
		for i := 1; i <= maxLen; i++ {
			place[i] = mulmod(place[i-1], p.Radix, p.Prime)
		}
		t.place[h] = place
	}
	return t
}

// MaxLen returns the longest read length the table supports.
func (t *Table) MaxLen() int { return t.maxLen }

// horner runs the Horner recurrence acc = acc*radix + digit over s for
// both hash components at once and returns the fingerprint of all of s.
// When out is non-nil it also stores the fingerprint of s[0:i+1] in
// out[i]; it must then hold len(s) keys.
//
// Component A's acc*5 + digit fits in 64 bits (acc < 2^61-1) and folds
// shift-free (2^61 ≡ 1 mod p). Component B's acc*7 overflows 64 bits, so
// it folds through mulmodB; the digit add cannot carry (acc ≤ p-1 =
// 2^64-60, digit ≤ 4).
func horner(s dna.Seq, out []kv.Key) kv.Key {
	var a, b uint64
	for i, c := range s {
		d := encode(c)
		v := a*5 + d
		a = (v & mersenne61) + (v >> 61)
		if a >= mersenne61 {
			a -= mersenne61
		}
		b = mulmodB(b, 7) + d
		if b >= primeB {
			b -= primeB
		}
		if out != nil {
			out[i] = kv.Key{Hi: a, Lo: b}
		}
	}
	return kv.Key{Hi: a, Lo: b}
}

// Fingerprint computes the 128-bit fingerprint of an entire sequence with
// a sequential Horner evaluation. It is the reference the kernels are
// tested against, and is also used by substrates that hash one string at
// a time.
func (t *Table) Fingerprint(s dna.Seq) kv.Key { return horner(s, nil) }

// prefixes fills out with the prefix fingerprints of s: one pass of the
// Horner recurrence over both components. It is the host computation
// behind every kernel's Prefixes; the kernels differ only in what they
// charge.
func (t *Table) prefixes(s dna.Seq, out []kv.Key) []kv.Key {
	if len(s) > t.maxLen {
		panic("fingerprint: read longer than table maxLen")
	}
	out = sizedKeys(out, len(s))
	horner(s, out)
	return out
}

// suffixDerive fills out with the suffix fingerprints derived from the prefix
// fingerprints (Fig. 6). An empty read has no suffixes.
func (t *Table) suffixDerive(prefixes []kv.Key, out []kv.Key) []kv.Key {
	n := len(prefixes)
	out = sizedKeys(out, n)
	if n == 0 {
		return out
	}
	placeA, placeB := t.place[0], t.place[1]
	wholeA := prefixes[n-1].Hi
	wholeB := prefixes[n-1].Lo
	out[0].Hi = wholeA
	out[0].Lo = wholeB
	for i := 1; i < n; i++ {
		out[i].Hi = submod(wholeA, mulmodA(prefixes[i-1].Hi, placeA[n-i]), mersenne61)
		out[i].Lo = submod(wholeB, mulmodB(prefixes[i-1].Lo, placeB[n-i]), primeB)
	}
	return out
}

// Kernel is the block-per-read kernel pair of Section III-A: prefix
// fingerprints charged as the Hillis-Steele scan of Fig. 5, suffix
// fingerprints derived as in Fig. 6. It holds no mutable state, so
// goroutines may share one.
type Kernel struct {
	table *Table
}

// NewKernel returns a kernel bound to the given place-value table.
func NewKernel(t *Table) *Kernel { return &Kernel{table: t} }

// sizedKeys returns out resized to n, allocating only when out (nil or
// short) cannot hold n keys. This is the out-slice contract of every
// kernel entry point: the result is out[:n] when cap(out) >= n, a fresh
// slice otherwise, and the contents are fully overwritten either way.
func sizedKeys(out []kv.Key, n int) []kv.Key {
	if cap(out) < n {
		return make([]kv.Key, n)
	}
	return out[:n]
}

// scanSteps is the number of Hillis-Steele doubling steps for an n-base
// read, ceil(log2 n): offsets 1, 2, 4, ... while below n. A read of zero
// or one base needs none.
func scanSteps(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(bits.Len(uint(n - 1)))
}

// scanCharge is the device charge of the prefix scan of an n-base read:
// per hash component, every doubling step reads and writes each thread's
// element once. Thread i of a step computes
//
//	P[i] = P[i-offset]*M[offset] + P[i]
//
// where M is the place-value array, behind a barrier between steps.
func scanCharge(n int) (memBytes, ops int64) {
	steps := 2 * scanSteps(n)
	return steps * int64(n) * 16, steps * int64(n)
}

// deriveCharge is the device charge of the Fig. 6 suffix derivation of an
// n-base read: one element read and written per hash component.
func deriveCharge(n int) (memBytes, ops int64) {
	return int64(n) * 2 * 16, int64(n) * 2
}

// Prefixes fills out[i] with the fingerprint of s[0:i+1] for every i and
// charges the Hillis-Steele scan of Fig. 5. When cap(out) >= len(s) the
// result aliases out; a nil or shorter slice is grown. The filled prefix
// is returned. An empty read yields an empty slice and charges nothing.
func (k *Kernel) Prefixes(dev *gpu.Device, s dna.Seq, out []kv.Key) []kv.Key {
	out = k.table.prefixes(s, out)
	if len(s) > 0 {
		dev.ChargeKernel(scanCharge(len(s)))
	}
	return out
}

// Suffixes fills out[i] with the fingerprint of s[i:] for every i, derived
// from the prefix fingerprints as in Fig. 6. prefixes must be the output
// of Prefixes for the same read. When cap(out) >= len(prefixes) the
// result aliases out; a nil or shorter slice is grown.
func (k *Kernel) Suffixes(dev *gpu.Device, prefixes []kv.Key, out []kv.Key) []kv.Key {
	out = k.table.suffixDerive(prefixes, out)
	if n := len(prefixes); n > 0 {
		dev.ChargeKernel(deriveCharge(n))
	}
	return out
}

// ScanRead computes both the prefix and the suffix fingerprints of one
// read with a single combined device charge, amortizing the metering of
// the per-read kernel pair in the map phase's inner loop. The charged
// totals are exactly the sum of a Prefixes call and a Suffixes call, so
// modeled counters are identical either way; only the number of meter
// updates shrinks. The out-slice contract matches Prefixes/Suffixes.
func (k *Kernel) ScanRead(dev *gpu.Device, s dna.Seq, pout, sout []kv.Key) (pf, sf []kv.Key) {
	pf = k.table.prefixes(s, pout)
	sf = k.table.suffixDerive(pf, sout)
	if n := len(s); n > 0 {
		scanMem, scanOps := scanCharge(n)
		derMem, derOps := deriveCharge(n)
		dev.ChargeKernel(scanMem+derMem, scanOps+derOps)
	}
	return pf, sf
}
