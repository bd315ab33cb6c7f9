package extsort

import (
	"sync"

	"repro/internal/kv"
)

// pairPool recycles host-side pair buffers — run-formation blocks, the
// merge scratch, window buffers, and the in-memory merge output —
// across partitions and merge passes, so a long sort of many partitions
// allocates its host blocks once instead of once per partition. The pool
// only recycles backing arrays: HostMem accounting is unchanged, because
// the modeled cost of a buffer is its reservation, not its allocation.
var pairPool sync.Pool

// getPairs returns a buffer of length exactly n with undefined contents.
// A pooled buffer with a larger capacity is re-sliced to n — never handed
// back at its previous partition's length, which would let a smaller
// partition read the previous partition's stale tail (see
// TestPooledBufferUnequalPartitions). A pooled buffer too small for the
// request is dropped for the GC.
func getPairs(n int) []kv.Pair {
	if v := pairPool.Get(); v != nil {
		buf := *(v.(*[]kv.Pair))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]kv.Pair, n)
}

// putPairs recycles a buffer obtained from getPairs. The caller must not
// retain any alias past this call.
func putPairs(buf []kv.Pair) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	pairPool.Put(&buf)
}
