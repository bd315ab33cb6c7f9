package gpu

import (
	"sync"

	"repro/internal/kv"
)

// SortPairs sorts ps in place by (128-bit key, 32-bit value). The modeled
// device runs an LSD radix sort over the 160-bit composite, the algorithm
// class the paper adopts from Merrill & Grimshaw for GPU radix sorting, and
// skips passes whose 8-bit digit column is constant, matching the
// early-exit optimization of production GPU sorts. The value participates
// as the lowest-order digits so that the order of equal-fingerprint runs
// is canonical — independent of how tuples were laid out on disk — which
// keeps single-node and distributed runs bit-identical.
//
// The cost model charges the bytes each executed LSD pass streams through
// device memory (one read plus one write of the whole buffer) plus one
// scalar op per element per pass. The host reaches the same order
// MSD-first (see sortPairsKernel); which columns are non-uniform, and so
// the charge, comes from one XOR-diff sweep.
func (d *Device) SortPairs(ps []kv.Pair) {
	d.SortPairsCost(ps)
}

// SortPairsCost is SortPairs that also returns the metered cost, for
// callers that place the kernel on a modeled timeline (the cost depends
// on how many radix passes actually executed, so it is only known after
// the kernel runs).
func (d *Device) SortPairsCost(ps []kv.Pair) (memBytes, ops int64) {
	if len(ps) <= 1 {
		return 0, 0
	}
	memBytes, ops = sortPairsKernel(ps)
	d.ChargeKernel(memBytes, ops)
	return memBytes, ops
}

// radixCols is the number of 8-bit digit columns in the 160-bit composite
// sort key (Hi ‖ Lo ‖ Val); column 0 is the least significant byte of Val.
const radixCols = 20

// sortScratchPool recycles the double-buffer scratch across kernel calls.
// The Device is shared by concurrent worker goroutines, so the pool is a
// sync.Pool; a pooled buffer too small for the request is simply dropped.
var sortScratchPool sync.Pool

func getSortScratch(n int) *[]kv.Pair {
	if v := sortScratchPool.Get(); v != nil {
		s := v.(*[]kv.Pair)
		if cap(*s) >= n {
			*s = (*s)[:n]
			return s
		}
	}
	s := make([]kv.Pair, n)
	return &s
}

// sortPairsKernel sorts ps (len ≥ 2) and returns the device-memory bytes
// and scalar ops the modeled LSD sort spends on it, so both the Device and
// the Stream entry point charge the meter and the modeled timeline from
// the same pass count.
//
// The charge needs only to know which columns are uniform, and a column is
// uniform exactly when its byte agrees with the first pair's in every pair.
// One sweep ORs each pair's XOR with the first pair into a mask; a non-zero
// mask byte is an executed LSD pass. The host then sorts MSD-first on the
// non-uniform columns, which reaches the same total order on (Hi, Lo, Val)
// — equal elements are identical, so the output bytes are the LSD sort's —
// after touching most elements once or twice instead of once per column.
func sortPairsKernel(ps []kv.Pair) (memBytes, ops int64) {
	n := len(ps)
	first := ps[0]
	var diff kv.Pair
	for i := 1; i < n; i++ {
		p := &ps[i]
		diff.Key.Hi |= p.Key.Hi ^ first.Key.Hi
		diff.Key.Lo |= p.Key.Lo ^ first.Key.Lo
		diff.Val |= p.Val ^ first.Val
	}
	var live [radixCols]uint8
	passes := 0
	for col := radixCols - 1; col >= 0; col-- {
		if colByte(&diff, col) != 0 {
			live[passes] = uint8(col)
			passes++
		}
	}
	if passes == 0 {
		return 0, 0
	}
	if n <= msdCutoff {
		insertionSortInto(ps, ps)
	} else {
		scratchPtr := getSortScratch(n)
		msdSort(ps, *scratchPtr, live[:passes], true)
		sortScratchPool.Put(scratchPtr)
	}
	return int64(passes) * 2 * int64(n) * kv.PairBytes, int64(passes) * int64(n)
}

// msdCutoff is the bucket size at or below which msdSort finishes with an
// insertion sort instead of another counting scatter over 256 digits.
const msdCutoff = 32

// colByte returns digit column col of p: column 0 is the least significant
// byte of Val, column 19 the most significant byte of Key.Hi.
func colByte(p *kv.Pair, col int) byte {
	switch {
	case col >= 12:
		return byte(p.Key.Hi >> (8 * (col - 12)))
	case col >= 4:
		return byte(p.Key.Lo >> (8 * (col - 4)))
	}
	return byte(p.Val >> (8 * col))
}

// msdSort sorts src (more than msdCutoff pairs) on the digit columns cols,
// most significant first, using dst (same length, contents free) as the
// scatter target. The result ends in src when inSrc is set and in dst
// otherwise, so buckets alternate between the two buffers level by level
// without copying back.
func msdSort(src, dst []kv.Pair, cols []uint8, inSrc bool) {
	n := len(src)
	for ; len(cols) > 0; cols = cols[1:] {
		col := int(cols[0])
		var next [256]int
		for i := range src {
			next[colByte(&src[i], col)]++
		}
		if next[colByte(&src[0], col)] == n {
			continue // uniform within this bucket
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for i := range src {
			d := colByte(&src[i], col)
			dst[next[d]] = src[i]
			next[d]++
		}
		// next[d] is now the end of bucket d.
		start := 0
		for _, end := range next {
			switch m := end - start; {
			case m == 1:
				if inSrc {
					src[start] = dst[start]
				}
			case m > msdCutoff:
				msdSort(dst[start:end], src[start:end], cols[1:], !inSrc)
			case m > 1:
				if inSrc {
					insertionSortInto(src[start:end], dst[start:end])
				} else {
					insertionSortInto(dst[start:end], dst[start:end])
				}
			}
			start = end
		}
		return
	}
	// Every remaining column is uniform: the pairs are identical.
	if !inSrc {
		copy(dst, src)
	}
}

// insertionSortInto writes src sorted by kv.Pair.Less into dst, which may
// be src itself.
func insertionSortInto(dst, src []kv.Pair) {
	for i := range src {
		x := src[i]
		j := i
		for ; j > 0 && x.Less(dst[j-1]); j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = x
	}
}

// MergePairs merges two key-sorted slices into a single sorted output,
// the GPU_MERGE step of Algorithm 1. The returned slice is freshly
// allocated with capacity len(a)+len(b).
func (d *Device) MergePairs(a, b []kv.Pair) []kv.Pair {
	out := make([]kv.Pair, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Less(a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	n := int64(len(out))
	d.ChargeKernel(2*n*kv.PairBytes, n)
	return out
}

// MergePairsInto merges a and b into dst[:0] and returns the filled slice.
// A dst with capacity for both is reused without allocation, as hot loops
// do; a nil or short dst is replaced by a new slice of exactly that size,
// so the result need not share dst's array.
func (d *Device) MergePairsInto(dst, a, b []kv.Pair) []kv.Pair {
	out, mem, ops := mergePairsIntoKernel(dst, a, b)
	d.ChargeKernel(mem, ops)
	return out
}

func mergePairsIntoKernel(dst, a, b []kv.Pair) ([]kv.Pair, int64, int64) {
	total := len(a) + len(b)
	if cap(dst) < total {
		dst = make([]kv.Pair, total)
	}
	dst = dst[:total]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Less(a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
	n := int64(len(dst))
	return dst, 2 * n * kv.PairBytes, n
}
