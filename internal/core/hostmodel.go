package core

// modeledGraphDegree is the directed overlap edges per vertex the host
// admission model assumes. Shotgun data at assembly-grade coverage keeps
// a handful of true overlaps per read end; 8 directed edges per vertex
// upper-bounds the post-reduction graphs the test profiles produce while
// staying a pure function of the job size.
const modeledGraphDegree = 8

// GraphHostModel returns the modeled peak host bytes a job of numReads
// reads (of at most maxReadLen bases) needs under the given graph
// backend: the bulk read set plus the backend's graph-representation
// peak. It is the serving layer's host-side analogue of
// DeviceDemandBytes — a deterministic upper bound the admission math can
// invert — not a measurement.
//
// Per-backend graph terms, for n = 2*numReads vertices and
// nnz = modeledGraphDegree*n modeled entries:
//
//   - greedy: per-vertex arrays only (successor, overlap length, one bit
//     of out-mask) — no per-edge term, the paper's O(reads) design.
//   - spmat: the builder's packed edge keys (8 B/entry) and the packed
//     CSR (8 B/rowPtr + 6 B/entry) coexist at Build time, so the peak is
//     their sum.
//   - succinct: the compressed adjacency stream (~3 B/entry) plus the
//     two Elias–Fano offset sequences (~2 B/vertex) — the builder's
//     transient bookkeeping is smaller than the sealed structure, so the
//     sealed size is the peak.
func GraphHostModel(backend string, numReads, maxReadLen int) int64 {
	n := int64(2 * numReads)
	nnz := modeledGraphDegree * n
	reads := int64(numReads)*int64(maxReadLen) + 4*int64(numReads)
	var g int64
	switch backend {
	case BackendSpmat:
		g = 8*nnz + 8*(n+1) + 6*nnz
	case BackendSuccinct:
		g = 3*nnz + 2*(n+1)
	default: // greedy (and the empty-string resolution)
		g = 6*n + (n+7)/8
	}
	return reads + g
}

// MaxReadsForHostBudget inverts GraphHostModel: the largest numReads
// whose modeled host footprint fits in budget bytes. Zero when even one
// read does not fit.
func MaxReadsForHostBudget(backend string, budget int64, maxReadLen int) int {
	if budget <= 0 || GraphHostModel(backend, 1, maxReadLen) > budget {
		return 0
	}
	lo, hi := 1, 2
	for GraphHostModel(backend, hi, maxReadLen) <= budget {
		lo = hi
		if hi > 1<<40 { // model is linear: budget this large means "unbounded"
			return hi
		}
		hi *= 2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if GraphHostModel(backend, mid, maxReadLen) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
