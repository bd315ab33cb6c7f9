// Package kv defines the key-value pair type that flows through the whole
// LaSAGNA pipeline: a 128-bit Rabin-Karp fingerprint key paired with a
// 32-bit read (vertex) identifier.
//
// The paper (Section IV-B) uses 128-bit fingerprints, built from two
// independent 64-bit rolling hashes with different radixes and primes,
// because that was observed to yield zero false-positive edges across all
// evaluated datasets. Pairs are serialized to disk in a fixed-width 20-byte
// little-endian layout so that partition files can be streamed, windowed,
// and merged without any framing overhead.
package kv

import "encoding/binary"

// Key is a 128-bit fingerprint. Hi holds the most significant 64 bits for
// comparison purposes; the two halves come from two independent rolling
// hashes (see internal/fingerprint).
type Key struct {
	Hi uint64
	Lo uint64
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.Hi != o.Hi {
		return k.Hi < o.Hi
	}
	return k.Lo < o.Lo
}

// Cmp returns -1, 0, or +1 according to the order of k relative to o.
func (k Key) Cmp(o Key) int {
	switch {
	case k.Hi < o.Hi:
		return -1
	case k.Hi > o.Hi:
		return 1
	case k.Lo < o.Lo:
		return -1
	case k.Lo > o.Lo:
		return 1
	default:
		return 0
	}
}

// Min returns the smaller of two keys.
func Min(a, b Key) Key {
	if b.Less(a) {
		return b
	}
	return a
}

// Max returns the larger of two keys.
func Max(a, b Key) Key {
	if a.Less(b) {
		return b
	}
	return a
}

// Pair couples a fingerprint with the vertex ID of the read (or reverse
// complement) it was generated from. A forward read i maps to vertex 2i and
// its Watson-Crick complement to 2i+1 (see internal/dna).
type Pair struct {
	Key Key
	Val uint32
}

// Less orders pairs by key, breaking ties by value so that sorting is total
// and deterministic. It compares the fields directly rather than through
// Key.Cmp: it is the comparison inside the sort and merge kernels.
func (p Pair) Less(o Pair) bool {
	if p.Key.Hi != o.Key.Hi {
		return p.Key.Hi < o.Key.Hi
	}
	if p.Key.Lo != o.Key.Lo {
		return p.Key.Lo < o.Key.Lo
	}
	return p.Val < o.Val
}

// PairBytes is the fixed on-disk size of an encoded Pair.
const PairBytes = 20

// Encode writes p into buf, which must be at least PairBytes long.
func (p Pair) Encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:8], p.Key.Hi)
	binary.LittleEndian.PutUint64(buf[8:16], p.Key.Lo)
	binary.LittleEndian.PutUint32(buf[16:20], p.Val)
}

// DecodePair reads a Pair from buf, which must be at least PairBytes long.
func DecodePair(buf []byte) Pair {
	return Pair{
		Key: Key{
			Hi: binary.LittleEndian.Uint64(buf[0:8]),
			Lo: binary.LittleEndian.Uint64(buf[8:16]),
		},
		Val: binary.LittleEndian.Uint32(buf[16:20]),
	}
}

// SortedPairs reports whether ps is in non-decreasing key order.
func SortedPairs(ps []Pair) bool {
	for i := 1; i < len(ps); i++ {
		if ps[i].Key.Less(ps[i-1].Key) {
			return false
		}
	}
	return true
}

// LowerBound returns the index of the first pair in the sorted slice ps
// whose key is not less than k. It mirrors the lower-bound definition in
// Algorithm 2 of the paper.
func LowerBound(ps []Pair, k Key) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].Key.Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the index of the first pair in the sorted slice ps
// whose key is strictly greater than k (the upper-bound of Algorithm 1).
func UpperBound(ps []Pair, k Key) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k.Less(ps[mid].Key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
