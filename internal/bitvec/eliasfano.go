package bitvec

import (
	"fmt"
	"math/bits"
)

// EliasFano is a quasi-succinct encoding of a monotone non-decreasing
// sequence of n values in [0, universe] (Elias 1974; Vigna's
// quasi-succinct indices). Each value is split into l = log2(u/n) low
// bits, stored verbatim in a packed array, and a high part coded in
// unary in a bitvector of n + (u >> l) + 1 bits. Total space is about
// n*(2 + log2(u/n)) bits — far below the 64n of a plain offset array.
// Get is select-bound: one RankIndex.Select1 on the high bits (a search
// over the superblock counts, not a constant-time directory lookup) plus
// a packed-array read. Pair amortizes that select over two adjacent
// values, which is how an offset sequence is read (lo and hi of one row).
//
// The succinct graph store uses two of these: one for per-vertex edge
// offsets (rowPtr) and one for per-vertex byte offsets into the
// delta-coded adjacency stream.
type EliasFano struct {
	n        int
	universe uint64
	l        uint
	low      []uint64 // packed l-bit low parts
	high     *Vector  // unary-coded high parts
	rank     *RankIndex
}

// EliasFanoBuilder accumulates a monotone sequence with a known length
// and universe bound, then seals it into an EliasFano.
type EliasFanoBuilder struct {
	ef   *EliasFano
	next int
	prev uint64
}

// NewEliasFanoBuilder prepares storage for n values, each at most
// universe, appended in non-decreasing order.
func NewEliasFanoBuilder(n int, universe uint64) (*EliasFanoBuilder, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitvec: negative eliasfano length %d", n)
	}
	var l uint
	if n > 0 && universe > uint64(n) {
		l = uint(bits.Len64(universe/uint64(n)) - 1)
	}
	highBits := 1
	if n > 0 {
		highBits = n + int(universe>>l) + 1
	}
	ef := &EliasFano{
		n:        n,
		universe: universe,
		l:        l,
		low:      make([]uint64, (int(l)*n+63)/64+1),
		high:     New(highBits),
	}
	return &EliasFanoBuilder{ef: ef}, nil
}

// Append adds the next value. Values must be non-decreasing and within
// the declared universe.
func (b *EliasFanoBuilder) Append(v uint64) error {
	ef := b.ef
	if b.next >= ef.n {
		return fmt.Errorf("bitvec: eliasfano overflow: %d values declared", ef.n)
	}
	if v > ef.universe {
		return fmt.Errorf("bitvec: eliasfano value %d exceeds universe %d", v, ef.universe)
	}
	if v < b.prev {
		return fmt.Errorf("bitvec: eliasfano sequence not monotone: %d after %d", v, b.prev)
	}
	if ef.l > 0 {
		lowVal := v & ((1 << ef.l) - 1)
		pos := uint(b.next) * ef.l
		w, off := pos>>6, pos&63
		ef.low[w] |= lowVal << off
		if off+ef.l > 64 {
			ef.low[w+1] |= lowVal >> (64 - off)
		}
	}
	if err := ef.high.Set(uint32((v >> ef.l) + uint64(b.next))); err != nil {
		return fmt.Errorf("bitvec: eliasfano high bits: %w", err)
	}
	b.prev = v
	b.next++
	return nil
}

// Build seals the sequence. All n declared values must have been
// appended.
func (b *EliasFanoBuilder) Build() (*EliasFano, error) {
	if b.next != b.ef.n {
		return nil, fmt.Errorf("bitvec: eliasfano short build: %d of %d values", b.next, b.ef.n)
	}
	b.ef.rank = NewRankIndex(b.ef.high)
	return b.ef, nil
}

// Len returns the number of values in the sequence.
func (ef *EliasFano) Len() int { return ef.n }

// lowBits returns the packed low part of the i-th value.
func (ef *EliasFano) lowBits(i int) uint64 {
	if ef.l == 0 {
		return 0
	}
	pos := uint(i) * ef.l
	w, off := pos>>6, pos&63
	v := ef.low[w] >> off
	if off+ef.l > 64 {
		v |= ef.low[w+1] << (64 - off)
	}
	return v & ((1 << ef.l) - 1)
}

// Get returns the i-th value.
func (ef *EliasFano) Get(i int) (uint64, error) {
	if i < 0 || i >= ef.n {
		return 0, fmt.Errorf("bitvec: eliasfano index %d out of range [0, %d)", i, ef.n)
	}
	p, err := ef.rank.Select1(i)
	if err != nil {
		return 0, err
	}
	return uint64(p-i)<<ef.l | ef.lowBits(i), nil
}

// Pair returns the i-th and (i+1)-th values for the price of one select:
// the (i+1)-th high part ends at the next set bit after the i-th's, found
// by a forward word scan. i+1 must be below Len().
func (ef *EliasFano) Pair(i int) (lo, hi uint64, err error) {
	if i < 0 || i+1 >= ef.n {
		return 0, 0, fmt.Errorf("bitvec: eliasfano pair index %d out of range [0, %d)", i, ef.n-1)
	}
	p, err := ef.rank.Select1(i)
	if err != nil {
		return 0, 0, err
	}
	q := ef.high.nextSet(p + 1)
	if q < 0 {
		return 0, 0, fmt.Errorf("bitvec: eliasfano high bits end after value %d of %d", i, ef.n)
	}
	return uint64(p-i)<<ef.l | ef.lowBits(i), uint64(q-i-1)<<ef.l | ef.lowBits(i+1), nil
}

// Bytes returns the in-memory size of the encoded sequence including
// its rank directory.
func (ef *EliasFano) Bytes() int64 {
	b := 8 * int64(len(ef.low))
	b += ef.high.Bytes()
	if ef.rank != nil {
		b += ef.rank.Bytes()
	}
	return b
}
