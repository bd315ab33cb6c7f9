package bitvec

import (
	"fmt"
	"math/bits"
)

// RankIndex is a rank9-style rank/select directory over a Vector
// (Vigna, "Broadword Implementation of Rank/Select Queries"). The
// vector is divided into superblocks of 8 words (512 bits); for each
// superblock the index stores the absolute number of set bits before
// it, plus seven 9-bit relative counts (one per interior word) packed
// into a single uint64. Space overhead is 2 words per 8 payload words
// (25%). Rank1 touches one superblock. Select1 has no directory of its
// own: it locates the superblock by searching the absolute counts —
// an interpolated guess plus a galloping search, so a handful of probes
// when the ones are spread evenly (the Elias–Fano case) and O(log n) at
// worst — then finishes inside one superblock in constant time.
//
// The index is a snapshot: mutating the underlying Vector after
// NewRankIndex invalidates it.
type RankIndex struct {
	v    *Vector
	abs  []uint64 // per superblock: set bits strictly before it
	rel  []uint64 // per superblock: packed 9-bit cumulative word counts
	ones int
	// sbPerOne is superblocks per set bit, Select1's interpolation slope.
	sbPerOne float64
}

// NewRankIndex builds the directory in one pass over the vector.
func NewRankIndex(v *Vector) *RankIndex {
	nsb := (len(v.words) + 7) / 8
	r := &RankIndex{
		v:   v,
		abs: make([]uint64, nsb+1),
		rel: make([]uint64, nsb),
	}
	total := uint64(0)
	for sb := 0; sb < nsb; sb++ {
		r.abs[sb] = total
		within := uint64(0)
		for j := 0; j < 8; j++ {
			w := sb*8 + j
			if j > 0 {
				r.rel[sb] |= (within & 0x1ff) << (9 * (j - 1))
			}
			if w < len(v.words) {
				within += uint64(bits.OnesCount64(v.words[w]))
			}
		}
		total += within
	}
	r.abs[nsb] = total
	r.ones = int(total)
	if total > 0 {
		r.sbPerOne = float64(nsb) / float64(total)
	}
	return r
}

// Ones returns the total number of set bits.
func (r *RankIndex) Ones() int { return r.ones }

// relCount returns the number of set bits in words [8*sb, 8*sb+j).
func (r *RankIndex) relCount(sb, j int) uint64 {
	if j == 0 {
		return 0
	}
	return (r.rel[sb] >> (9 * (j - 1))) & 0x1ff
}

// Rank1 returns the number of set bits in positions [0, i). i may equal
// Len(), giving the total population count.
func (r *RankIndex) Rank1(i int) (int, error) {
	if i < 0 || i > r.v.n {
		return 0, fmt.Errorf("bitvec: rank index %d out of range [0, %d]", i, r.v.n)
	}
	w := i >> 6
	sb := w >> 3
	count := r.abs[sb] + r.relCount(sb, w&7)
	if w < len(r.v.words) {
		if low := uint(i & 63); low != 0 {
			count += uint64(bits.OnesCount64(r.v.words[w] << (64 - low)))
		}
	}
	return int(count), nil
}

// superblockOf returns the superblock holding the k-th set bit: the sb
// with abs[sb] <= k < abs[sb+1]. k must be below Ones().
func (r *RankIndex) superblockOf(k uint64) int {
	nsb := len(r.rel)
	lo := min(int(float64(k)*r.sbPerOne), nsb-1)
	hi := lo + 1
	// Gallop away from the guess until [lo, hi) brackets k; abs[0] = 0 and
	// abs[nsb] = Ones() > k stop the two directions.
	if r.abs[lo] > k {
		for step := 1; r.abs[lo] > k; step *= 2 {
			hi = lo
			lo = max(lo-step, 0)
		}
	} else {
		for step := 1; r.abs[hi] <= k; step *= 2 {
			lo = hi
			hi = min(hi+step, nsb)
		}
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.abs[mid] <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Select1 returns the position of the k-th set bit (0-based), i.e. the
// smallest p with Rank1(p+1) == k+1.
func (r *RankIndex) Select1(k int) (int, error) {
	if k < 0 || k >= r.ones {
		return 0, fmt.Errorf("bitvec: select index %d out of range [0, %d)", k, r.ones)
	}
	sb := r.superblockOf(uint64(k))
	rem := uint64(k) - r.abs[sb]
	// Walk the packed relative counts to the word.
	rel := r.rel[sb]
	w := sb * 8
	var before uint64
	for j := 0; j < 7; j++ {
		c := rel & 0x1ff
		if c > rem {
			break
		}
		before = c
		w++
		rel >>= 9
	}
	rem -= before
	word := r.v.words[w]
	if uint64(bits.OnesCount64(word)) <= rem {
		return 0, fmt.Errorf("bitvec: select directory corrupt at bit %d", k)
	}
	return w<<6 + select64(word, uint(rem)), nil
}

// selectInByte[b][k] is the position of the k-th set bit of byte b.
var selectInByte = func() (t [256][8]uint8) {
	for b := range t {
		k := 0
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				t[b][k] = uint8(bit)
				k++
			}
		}
	}
	return t
}()

// select64 returns the position of the k-th set bit of x (0-based); x
// must have more than k bits set. Broadword: byte-wise prefix popcounts
// by one multiplication, a parallel compare to find the byte, and a
// table lookup inside it (Vigna, op. cit., Algorithm 2).
func select64(x uint64, k uint) int {
	const (
		ones = 0x0101010101010101
		msbs = 0x8080808080808080
	)
	s := x - ((x >> 1) & 0x5555555555555555)
	s = (s & 0x3333333333333333) + ((s >> 2) & 0x3333333333333333)
	s = (s + (s >> 4)) & 0x0f0f0f0f0f0f0f0f
	byteSums := s * ones // byte i: popcount of bytes 0..i
	// A byte's high bit survives the subtraction iff its prefix count is
	// <= k, so the survivors count the bytes wholly before the target.
	place := uint(bits.OnesCount64(((uint64(k)*ones|msbs)-byteSums)&msbs)) * 8
	inByte := k - uint((byteSums<<8)>>place)&0xff
	return int(place) + int(selectInByte[(x>>place)&0xff][inByte&7])
}

// Bytes returns the in-memory size of the directory (excluding the
// underlying vector payload).
func (r *RankIndex) Bytes() int64 {
	return 8 * int64(len(r.abs)+len(r.rel))
}
