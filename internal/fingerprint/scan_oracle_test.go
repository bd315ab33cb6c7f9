package fingerprint

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/kv"
)

// hillisSteele is the prefix kernel as Fig. 5 draws it and as the device
// runs it: per hash component, iterative doubling over double buffers,
// thread i computing P[i] = P[i-offset]*M[offset] + P[i] behind a barrier
// between steps. It is the oracle the Horner recurrence is pinned
// against, for values and for charges.
type hillisSteele struct {
	table     *Table
	cur, next [2][]uint64
}

func newHillisSteele(t *Table) *hillisSteele {
	o := &hillisSteele{table: t}
	for h := 0; h < 2; h++ {
		o.cur[h] = make([]uint64, t.maxLen)
		o.next[h] = make([]uint64, t.maxLen)
	}
	return o
}

// scanStepA is one doubling step of the PrimeA component:
// next[i] = cur[i-offset]*m + cur[i] mod 2^61-1 for i in [offset, n).
func scanStepA(next, cur []uint64, offset int, m uint64) {
	for i := offset; i < len(cur); i++ {
		next[i] = addmodA(mulmodA(cur[i-offset], m), cur[i])
	}
}

// scanStepB is the same step for the PrimeB component, with a
// carry-aware add.
func scanStepB(next, cur []uint64, offset int, m uint64) {
	for i := offset; i < len(cur); i++ {
		s, carry := bits.Add64(mulmodB(cur[i-offset], m), cur[i], 0)
		if carry != 0 {
			s += primeBFold
		} else if s >= primeB {
			s -= primeB
		}
		next[i] = s
	}
}

func addmodA(a, b uint64) uint64 {
	t := a + b // both < 2^61: no overflow
	if t >= mersenne61 {
		t -= mersenne61
	}
	return t
}

// scanComponent runs the full doubling scan for hash component h over s
// and returns the prefix values and the number of steps executed.
func (o *hillisSteele) scanComponent(h int, s dna.Seq) ([]uint64, int) {
	n := len(s)
	place := o.table.place[h]
	cur, next := o.cur[h][:n], o.next[h][:n]
	for i, c := range s {
		cur[i] = encode(c)
	}
	steps := 0
	for offset := 1; offset < n; offset *= 2 {
		steps++
		m := place[offset]
		copy(next[:offset], cur[:offset])
		if h == 0 {
			scanStepA(next, cur, offset, m)
		} else {
			scanStepB(next, cur, offset, m)
		}
		cur, next = next, cur
	}
	return cur, steps
}

// scanRead returns the prefix fingerprints by the scan, the suffix
// fingerprints by Fig. 6's derivation written out per position, and
// charges dev exactly what the scan and the derivation move: each step
// touches every element once, the derivation one element per component.
func (o *hillisSteele) scanRead(dev *gpu.Device, s dna.Seq) (pf, sf []kv.Key) {
	n := len(s)
	pf, sf = make([]kv.Key, n), make([]kv.Key, n)
	a, stepsA := o.scanComponent(0, s)
	for i, v := range a {
		pf[i].Hi = v
	}
	b, stepsB := o.scanComponent(1, s)
	for i, v := range b {
		pf[i].Lo = v
	}
	for i := 0; i < n; i++ {
		sf[i] = pf[n-1]
		if i > 0 {
			sf[i].Hi = submod(sf[i].Hi, mulmod(pf[i-1].Hi, o.table.place[0][n-i], mersenne61), mersenne61)
			sf[i].Lo = submod(sf[i].Lo, mulmod(pf[i-1].Lo, o.table.place[1][n-i], primeB), primeB)
		}
	}
	if n > 0 {
		steps := int64(stepsA + stepsB)
		dev.ChargeKernel(steps*int64(n)*16+int64(n)*2*16, steps*int64(n)+int64(n)*2)
	}
	return pf, sf
}

// oracleReads returns, for each length, a random read, an all-A, an
// all-T and an alternating A/T read.
func oracleReads(rng *rand.Rand, n int) map[string]dna.Seq {
	allT, alt := make(dna.Seq, n), make(dna.Seq, n)
	for i := range allT {
		allT[i] = 3
		alt[i] = byte(3 * (i % 2))
	}
	return map[string]dna.Seq{
		"random":      randomRead(rng, n),
		"all-A":       make(dna.Seq, n),
		"all-T":       allT,
		"alternating": alt,
	}
}

// TestScanReadMatchesHillisSteele pins the Horner recurrence to the
// Hillis-Steele scan it replaces on the host: equal prefix and suffix
// keys, and equal meter snapshots for ScanRead and for Prefixes followed
// by Suffixes, at lengths around every power-of-two step boundary.
func TestScanReadMatchesHillisSteele(t *testing.T) {
	const maxLen = 257
	table := NewTable(maxLen)
	kern := NewKernel(table)
	oracle := newHillisSteele(table)
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 63, 64, 65, 100, 101, 150, maxLen} {
		for name, s := range oracleReads(rng, n) {
			mWant := costmodel.NewMeter()
			wantP, wantS := oracle.scanRead(gpu.NewDevice(gpu.K40, mWant), s)

			mRead := costmodel.NewMeter()
			gotP, gotS := kern.ScanRead(gpu.NewDevice(gpu.K40, mRead), s, nil, nil)

			mSep := costmodel.NewMeter()
			devSep := gpu.NewDevice(gpu.K40, mSep)
			sepP := kern.Prefixes(devSep, s, nil)
			sepS := kern.Suffixes(devSep, sepP, nil)

			if len(gotP) != n || len(gotS) != n || len(sepP) != n || len(sepS) != n {
				t.Fatalf("n=%d %s: lengths %d/%d/%d/%d", n, name, len(gotP), len(gotS), len(sepP), len(sepS))
			}
			for i := 0; i < n; i++ {
				if gotP[i] != wantP[i] || sepP[i] != wantP[i] {
					t.Fatalf("n=%d %s: prefix %d = %v / %v, scan %v", n, name, i, gotP[i], sepP[i], wantP[i])
				}
				if gotS[i] != wantS[i] || sepS[i] != wantS[i] {
					t.Fatalf("n=%d %s: suffix %d = %v / %v, scan %v", n, name, i, gotS[i], sepS[i], wantS[i])
				}
			}
			want := mWant.Snapshot()
			if got := mRead.Snapshot(); got != want {
				t.Fatalf("n=%d %s: ScanRead meter %+v, scan %+v", n, name, got, want)
			}
			if got := mSep.Snapshot(); got != want {
				t.Fatalf("n=%d %s: Prefixes+Suffixes meter %+v, scan %+v", n, name, got, want)
			}
		}
	}
}

// FuzzScanRead holds every prefix and suffix key of an arbitrary read to
// Table.Fingerprint of that substring, and the charge to the scan's.
func FuzzScanRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Add([]byte("ACGTTGCAACGT"))
	const maxLen = 300
	table := NewTable(maxLen)
	kern := NewKernel(table)
	oracle := newHillisSteele(table)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > maxLen {
			raw = raw[:maxLen]
		}
		s := make(dna.Seq, len(raw))
		for i, b := range raw {
			s[i] = b & 3
		}
		mGot, mWant := costmodel.NewMeter(), costmodel.NewMeter()
		pf, sf := kern.ScanRead(gpu.NewDevice(gpu.K40, mGot), s, nil, nil)
		oracle.scanRead(gpu.NewDevice(gpu.K40, mWant), s)
		for i := range s {
			if want := table.Fingerprint(s[:i+1]); pf[i] != want {
				t.Fatalf("prefix %d = %v, want %v", i, pf[i], want)
			}
			if want := table.Fingerprint(s[i:]); sf[i] != want {
				t.Fatalf("suffix %d = %v, want %v", i, sf[i], want)
			}
		}
		if got, want := mGot.Snapshot(), mWant.Snapshot(); got != want {
			t.Fatalf("meter %+v, scan %+v", got, want)
		}
	})
}
