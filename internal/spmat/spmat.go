// Package spmat implements the sparse-matrix graph backend: the string
// graph as a CSR boolean/weighted adjacency matrix, transitive reduction
// as a masked SpGEMM (A·A two-hop products filtered against A's own
// entries), selectable per run via core.Config.GraphBackend.
//
// Guidi et al. (arXiv:2010.10055) observe that overlap detection and
// transitive reduction are naturally sparse-matrix operations; this
// package follows that layout so the reduction can be metered as batched
// device kernels (tiled row blocks, H2D/D2H transfers) instead of the
// pointer-chasing sweep sgraph performs.
//
// Contract with Myers' sweep in sgraph, the oracle FuzzTwoHopMatchesMyers
// holds this package to (see DESIGN.md, "Sparse-matrix graph backend"):
// the masked SpGEMM removes a superset of the edges the sweep removes —
// Myers skips witness chains whose first hop was itself eliminated, the
// matrix product does not — while preserving reachability, because an
// edge is only masked when a two-hop chain with strictly positive
// overhangs spells the same placement.
package spmat

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Edge is one directed overlap edge — a COO triple: the Len-suffix of
// vertex U matches the Len-prefix of vertex V.
type Edge = graph.Edge

// Matrix is a CSR adjacency matrix over the 2*numReads string-graph
// vertices: entry (u, v) holds the overlap length of edge u->v. Column
// indices are strictly increasing within each row, which lets the reducer
// merge-join two rows and makes the serialized edge order deterministic.
type Matrix struct {
	n      int
	rowPtr []int64
	col    []uint32
	val    []uint16
}

// NumVertices returns the matrix dimension (2*numReads).
func (m *Matrix) NumVertices() int { return m.n }

// NNZ returns the number of stored entries (directed edges).
func (m *Matrix) NNZ() int64 { return int64(len(m.col)) }

// Row implements graph.RowStore: row u's column indices and overlap
// lengths as zero-copy slices of the CSR arrays (the scratch is unused),
// and the entry index of the row's first column.
func (m *Matrix) Row(u uint32, _ *graph.RowScratch) ([]uint32, []uint16, int64, error) {
	lo, hi := m.rowPtr[u], m.rowPtr[u+1]
	return m.col[lo:hi], m.val[lo:hi], lo, nil
}

// Degree implements graph.RowStore.
func (m *Matrix) Degree(u uint32) (int64, error) {
	return m.rowPtr[u+1] - m.rowPtr[u], nil
}

// TransferBytes implements graph.RowStore, pricing a tile's out-of-core
// transfer in CSR terms: its row pointers, its entries, and every neighbor
// entry its products read.
func (m *Matrix) TransferBytes(_, _, rowBatch int, nnz, flops int64) (int64, error) {
	return 8*int64(rowBatch+1) + 6*nnz + 6*flops, nil
}

// Edges streams every entry in CSR order: (u, v) ascending.
func (m *Matrix) Edges(fn func(Edge)) {
	for u := 0; u < m.n; u++ {
		for i := m.rowPtr[u]; i < m.rowPtr[u+1]; i++ {
			fn(Edge{U: uint32(u), V: m.col[i], Len: m.val[i]})
		}
	}
}

// Bytes is the matrix's serialized device footprint: 8 bytes per row
// pointer plus 6 per entry (column + length). Transfer and kernel
// metering use it, so it must be a pure function of the structure.
func (m *Matrix) Bytes() int64 {
	return 8*int64(len(m.rowPtr)) + 6*int64(len(m.col))
}

// ApproxBytes is the host-memory footprint of the CSR arrays. A matrix out
// of Builder.Build holds exactly 8*(n+1) + 6*nnz bytes (capacity equals
// length); FromEdgeRuns grows its arrays by append and may hold more.
func (m *Matrix) ApproxBytes() int64 {
	return 8*int64(cap(m.rowPtr)) + 4*int64(cap(m.col)) + 2*int64(cap(m.val))
}

// Builder accumulates directed edges and packs them into a CSR Matrix. The
// result depends only on the set of overlaps offered, not their order, and
// duplicates dedupe with the same keep-the-longest rule as
// sgraph.Graph.AddOverlap.
//
// Each edge is held as one packed uint64 (Dinh & Rajasekaran,
// arXiv:1009.3984: an exact-match overlap edge fits a machine word) in the
// bucket of its row range, so Build never comparison-sorts the whole edge
// list: rows are placed by bucket, as a counting CSR build does (Guidi et
// al., arXiv:2010.10055), and each bucket's few thousand keys sort in
// cache under plain integer order, which is (U, V, longest first). The
// pipeline offers every overlap from both strands — the suffix of u on the
// prefix of v, and the suffix of v' on the prefix of u', which name the
// same two directed edges — so about half the keys are exact duplicates
// that Build drops.
type Builder struct {
	numReads int
	buckets  [][]uint64 // buckets[i] holds rows [i*bucketRows, (i+1)*bucketRows)
}

// A packed key is row-within-bucket<<rowShift | V<<lenBits | ^Len. The
// complemented length makes the longest of a duplicate (U, V) run sort
// first. V and Len fill their fields by type; the row field is what the
// bucket width must fit.
const (
	bucketRows = 512
	lenBits    = 16
	rowShift   = lenBits + 32
	_          = uint(1<<(64-rowShift) - bucketRows) // the in-bucket row must fit its field
)

func packKey(e Edge) uint64 {
	return uint64(e.U%bucketRows)<<rowShift | uint64(e.V)<<lenBits | uint64(^e.Len)
}

// NewBuilder creates a builder for a graph over 2*numReads vertices.
func NewBuilder(numReads int) *Builder {
	return &Builder{
		numReads: numReads,
		buckets:  make([][]uint64, (2*numReads+bucketRows-1)/bucketRows),
	}
}

// AddOverlap records the candidate overlap (u, v, l) and its complement
// under graph.OverlapEdges' rule (self-loops and hairpins are rejected);
// duplicates are resolved at Build time.
func (b *Builder) AddOverlap(u, v uint32, l uint16) bool {
	e, ec, ok := graph.OverlapEdges(u, v, l)
	if ok {
		b.buckets[e.U/bucketRows] = append(b.buckets[e.U/bucketRows], packKey(e))
		b.buckets[ec.U/bucketRows] = append(b.buckets[ec.U/bucketRows], packKey(ec))
	}
	return ok
}

// ApproxBytes is the host memory the builder holds: every bucket's
// capacity plus the bucket slice headers. A bucket's capacity is a function
// of how many keys it received, so the figure does not depend on the order
// the overlaps arrived in.
func (b *Builder) ApproxBytes() int64 {
	n := 24 * int64(cap(b.buckets))
	for _, keys := range b.buckets {
		n += 8 * int64(cap(keys))
	}
	return n
}

// Build packs CSR from the buckets, keeping the longest overlap among
// duplicates: each bucket is sorted and deduplicated in place, which gives
// the entry count, then the exactly-sized arrays are filled in one pass.
// Insertion order never leaks into the result.
func (b *Builder) Build() *Matrix {
	nnz := 0
	for i, keys := range b.buckets {
		slices.Sort(keys)
		keys = slices.CompactFunc(keys, func(a, k uint64) bool { return a>>lenBits == k>>lenBits })
		b.buckets[i] = keys
		nnz += len(keys)
	}
	m := &Matrix{
		n:      2 * b.numReads,
		rowPtr: make([]int64, 2*b.numReads+1),
		col:    make([]uint32, 0, nnz),
		val:    make([]uint16, 0, nnz),
	}
	for i, keys := range b.buckets {
		for _, k := range keys {
			m.col = append(m.col, uint32(k>>lenBits))
			m.val = append(m.val, ^uint16(k))
			m.rowPtr[i*bucketRows+int(k>>rowShift)+1]++
		}
	}
	for i := 0; i < m.n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// FromEdgeRuns builds a Matrix from a stream of edges in non-decreasing
// (U, V) order — the CSR order the pipeline persists edges.kv in. Exact
// duplicates (same U and V) dedupe deterministically, keeping the
// longest overlap. A record that regresses the order, falls outside the
// vertex range, carries a zero length, or is a self-loop is an error —
// never a panic — so a truncated or corrupted edge file fails loudly
// instead of assembling garbage.
func FromEdgeRuns(numVertices int, next func() (Edge, bool, error)) (*Matrix, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("spmat: negative vertex count %d", numVertices)
	}
	m := &Matrix{n: numVertices, rowPtr: make([]int64, numVertices+1)}
	var last Edge
	first := true
	for {
		e, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if int64(e.U) >= int64(numVertices) || int64(e.V) >= int64(numVertices) {
			return nil, fmt.Errorf("spmat: edge (%d->%d) out of range for %d vertices",
				e.U, e.V, numVertices)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("spmat: self-loop edge at vertex %d", e.U)
		}
		if e.Len == 0 {
			return nil, fmt.Errorf("spmat: edge (%d->%d) has zero overlap length", e.U, e.V)
		}
		if !first {
			if e.U < last.U || (e.U == last.U && e.V < last.V) {
				return nil, fmt.Errorf("spmat: edge run not sorted: (%d,%d) after (%d,%d)",
					e.U, e.V, last.U, last.V)
			}
			if e.U == last.U && e.V == last.V {
				if e.Len > m.val[len(m.val)-1] {
					m.val[len(m.val)-1] = e.Len
				}
				continue
			}
		}
		first = false
		last = e
		m.col = append(m.col, e.V)
		m.val = append(m.val, e.Len)
		m.rowPtr[e.U+1]++
	}
	for i := 0; i < numVertices; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m, nil
}

// ReduceConfig parameterizes the transitive-reduction pass; it is the
// shared two-hop reducer's config.
type ReduceConfig = graph.TwoHopConfig

// TransitiveReduce runs the shared masked two-hop reducer
// (graph.TransitiveReduceTwoHop, which documents the predicate, tiling
// and metering) over the CSR arrays. The result's Mask is indexed in CSR
// entry order; graph.NewLiveView(m, Mask) walks the survivors.
func (m *Matrix) TransitiveReduce(ctx context.Context, cfg ReduceConfig) (*graph.TwoHopResult, error) {
	return graph.TransitiveReduceTwoHop(ctx, m, "spgemm", cfg)
}
