package spmat

import (
	"context"

	"repro/internal/graph"
)

// ReduceConfig parameterizes the transitive-reduction pass; it is the
// shared two-hop reducer's config.
type ReduceConfig = graph.TwoHopConfig

// Reduction is the outcome of a transitive-reduction pass: the shared
// reducer's mask and metered totals (Removed, Flops, Tiles) over this
// matrix's entries.
type Reduction struct {
	m *Matrix
	graph.TwoHopResult
}

// Live streams the surviving (non-masked) edges in CSR order.
func (r *Reduction) Live(fn func(Edge)) {
	next := r.LiveEdges()
	for e, ok := next(); ok; e, ok = next() {
		fn(e)
	}
}

// LiveEdges returns a pull-style iterator over the surviving edges in
// CSR order, the shape writeEdgeFile consumes.
func (r *Reduction) LiveEdges() func() (Edge, bool) {
	u, i := uint32(0), int64(0)
	return func() (Edge, bool) {
		for int(u) < r.m.n {
			if i >= r.m.rowPtr[u+1] {
				u++
				continue
			}
			k := i
			i++
			if r.Mask[k] {
				continue
			}
			return Edge{U: u, V: r.m.col[k], Len: r.m.val[k]}, true
		}
		return Edge{}, false
	}
}

// csrRows is the Matrix as a graph.RowStore: rows are zero-copy slices of
// the CSR arrays, so a row costs two rowPtr loads.
type csrRows struct{ *Matrix }

func (c csrRows) Row(u uint32, _ *graph.RowScratch) ([]uint32, []uint16, int64, error) {
	cols, vals := c.Matrix.Row(u)
	return cols, vals, c.rowPtr[u], nil
}

func (c csrRows) Degree(u uint32) (int64, error) {
	return c.rowPtr[u+1] - c.rowPtr[u], nil
}

// TransferBytes prices a tile's out-of-core transfer in CSR terms: its
// row pointers, its entries, and every neighbor entry its products read.
func (c csrRows) TransferBytes(_, _, rowBatch int, nnz, flops int64) (int64, error) {
	return 8*int64(rowBatch+1) + 6*nnz + 6*flops, nil
}

// TransitiveReduce runs the shared masked two-hop reducer
// (graph.TransitiveReduceTwoHop, which documents the predicate, tiling
// and metering) over the CSR arrays.
func (m *Matrix) TransitiveReduce(ctx context.Context, cfg ReduceConfig) (*Reduction, error) {
	res, err := graph.TransitiveReduceTwoHop(ctx, csrRows{m}, "spgemm", cfg)
	if err != nil {
		return nil, err
	}
	return &Reduction{m: m, TwoHopResult: *res}, nil
}
