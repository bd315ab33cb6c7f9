// Package bitvec implements the out-degree bit-vector that gates greedy
// edge insertion in the LaSAGNA string graph (Section III-C).
//
// The graph is greedy: each vertex may have at most one outgoing edge, and
// one bit per vertex records whether that edge exists. In the distributed
// reduce phase this vector is the token that is handed from the node
// processing partition l+1 to the node processing partition l (Section
// III-E.3); the cluster charges its Bytes as the message size.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Vector is a fixed-size bit vector.
type Vector struct {
	words []uint64
	n     int
}

// New returns a vector of n bits, all clear.
func New(n int) *Vector {
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// check validates a bit index against the vector length.
func (v *Vector) check(i uint32) error {
	if int64(i) >= int64(v.n) {
		return fmt.Errorf("bitvec: index %d out of range [0, %d)", i, v.n)
	}
	return nil
}

// Get reports whether bit i is set. Out-of-range indices return a
// descriptive error rather than panicking: the vector is load-bearing
// under the succinct graph store, where indices come from decoded
// (possibly corrupt) input.
func (v *Vector) Get(i uint32) (bool, error) {
	if err := v.check(i); err != nil {
		return false, err
	}
	return v.words[i>>6]&(1<<(i&63)) != 0, nil
}

// Set sets bit i.
func (v *Vector) Set(i uint32) error {
	if err := v.check(i); err != nil {
		return err
	}
	v.words[i>>6] |= 1 << (i & 63)
	return nil
}

// nextSet returns the position of the first set bit at or after from,
// or -1 when there is none.
func (v *Vector) nextSet(from int) int {
	w := from >> 6
	if w >= len(v.words) {
		return -1
	}
	if x := v.words[w] >> (from & 63); x != 0 {
		return from + bits.TrailingZeros64(x)
	}
	for w++; w < len(v.words); w++ {
		if x := v.words[w]; x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	total := 0
	for _, w := range v.words {
		total += popcount(w)
	}
	return total
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Bytes returns the in-memory size of the vector payload.
func (v *Vector) Bytes() int64 { return 8 * int64(len(v.words)) }

// Clone returns an independent copy.
func (v *Vector) Clone() *Vector {
	out := New(v.n)
	copy(out.words, v.words)
	return out
}
