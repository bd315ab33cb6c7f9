package gpu

import (
	"math/bits"

	"repro/internal/kv"
)

// VecLowerBound computes, for every query key in queries, the lower bound
// (index of first element not less than the key) within the sorted targets
// slice. This is the GPU_VEC_LOWER_BOUND primitive of Algorithm 2, modeled
// and charged as one thread per query performing a binary search; the host
// computes the same bounds with sweepBounds.
func (d *Device) VecLowerBound(queries, targets []kv.Pair, out []int32) []int32 {
	out = vecLowerBoundKernel(queries, targets, out)
	d.chargeSearch(len(queries), len(targets))
	return out
}

func vecLowerBoundKernel(queries, targets []kv.Pair, out []int32) []int32 {
	return sweepBounds(queries, targets, out, false)
}

// VecUpperBound is the upper-bound counterpart (GPU_VEC_UPPER_BOUND).
func (d *Device) VecUpperBound(queries, targets []kv.Pair, out []int32) []int32 {
	out = vecUpperBoundKernel(queries, targets, out)
	d.chargeSearch(len(queries), len(targets))
	return out
}

func vecUpperBoundKernel(queries, targets []kv.Pair, out []int32) []int32 {
	return sweepBounds(queries, targets, out, true)
}

// sweepBounds is the host body of both bound kernels. A bound is monotone
// in its key, so while the query keys do not decrease each search starts
// where the previous one ended and gallops forward: probes at distance 1, 2,
// 4, ... until one lands at or past the bound, then a binary search inside
// the last gap. Over a fingerprint-sorted window (what overlap.Reduce
// passes) consecutive bounds are a few targets apart, so the sweep costs a
// handful of comparisons per query on cache lines it just touched, where a
// cold binary search costs log2(len(targets)) misses. The first query, and
// any query whose key is below its predecessor's, searches all of targets,
// so unsorted queries get exactly kv.LowerBound/kv.UpperBound as well.
func sweepBounds(queries, targets []kv.Pair, out []int32, upper bool) []int32 {
	out = out[:0]
	// before reports whether a target key lies before the bound of query
	// key k: strictly below it, or for an upper bound also equal to it.
	before := func(t, k kv.Key) bool {
		if upper {
			return !k.Less(t)
		}
		return t.Less(k)
	}
	at := 0 // the previous query's bound
	for i, q := range queries {
		k := q.Key
		// The bound lies in [lo, hi]; targets[:lo] are before it.
		lo, hi := 0, len(targets)
		if i > 0 && !k.Less(queries[i-1].Key) {
			lo = at
			probe, step := at, 1
			for probe < len(targets) && before(targets[probe].Key, k) {
				lo = probe + 1
				probe += step
				step <<= 1
			}
			hi = min(probe, len(targets))
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if before(targets[mid].Key, k) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		at = lo
		out = append(out, int32(at))
	}
	return out
}

// VecDifference computes u[i]-l[i] element-wise (GPU_VEC_DIFFERENCE): the
// per-suffix match counts in the reduce phase.
func (d *Device) VecDifference(u, l []int32, out []int32) []int32 {
	out = vecDifferenceKernel(u, l, out)
	d.ChargeKernel(3*4*int64(len(u)), int64(len(u)))
	return out
}

func vecDifferenceKernel(u, l []int32, out []int32) []int32 {
	out = out[:0]
	for i := range u {
		out = append(out, u[i]-l[i])
	}
	return out
}

func (d *Device) chargeSearch(numQueries, targetLen int) {
	if numQueries == 0 {
		return
	}
	d.ChargeKernel(searchCost(numQueries, targetLen))
}

// searchCost is the modeled cost of a vectorized binary search: one
// thread per query descending log2(targetLen) levels.
func searchCost(numQueries, targetLen int) (memBytes, ops int64) {
	depth := 1
	if targetLen > 1 {
		depth = bits.Len(uint(targetLen - 1))
	}
	ops = int64(numQueries) * int64(depth)
	return ops * kv.PairBytes, ops
}

// ExclusiveScan computes the exclusive prefix sum of xs into out and
// returns the total. It is the exclusive prefix-scan used by the contig
// generation phase (Fig. 7) to lay out path and read offsets.
func (d *Device) ExclusiveScan(xs []int64, out []int64) int64 {
	var sum int64
	for i, x := range xs {
		out[i] = sum
		sum += x
	}
	d.ChargeKernel(2*8*int64(len(xs)), int64(len(xs)))
	return sum
}

// Gather copies src[idx[i]] into out[i] for each i — the device gather
// (stencil) operation used to place per-read overhang tuples into
// read-ID-indexed slots during contig generation.
func Gather[T any](d *Device, src []T, idx []int32, out []T) {
	for i, ix := range idx {
		out[i] = src[ix]
	}
	var t T
	_ = t
	d.ChargeKernel(2*int64(len(idx))*8, int64(len(idx)))
}

// Scatter copies src[i] into out[idx[i]] for each i, the inverse of
// Gather.
func Scatter[T any](d *Device, src []T, idx []int32, out []T) {
	for i, ix := range idx {
		out[ix] = src[i]
	}
	d.ChargeKernel(2*int64(len(idx))*8, int64(len(idx)))
}
