package succinct

import (
	"context"

	"repro/internal/graph"
)

// ReduceConfig parameterizes the transitive-reduction pass; it is the
// shared two-hop reducer's config, exactly as for spmat.
type ReduceConfig = graph.TwoHopConfig

// Reduction is the outcome of a transitive-reduction pass: the shared
// reducer's mask and metered totals (Removed, Flops, Tiles) over this
// store's entries.
type Reduction struct {
	g *Graph
	graph.TwoHopResult
}

// Graph returns the underlying compressed store.
func (r *Reduction) Graph() *Graph { return r.g }

// LiveEdges returns an iterator over the surviving (non-masked) edges in
// CSR order.
func (r *Reduction) LiveEdges() *LiveIter { return &LiveIter{r: r} }

// LiveIter pulls a Reduction's surviving edges one at a time, the shape
// writeEdgeFile consumes. A row that fails to decode ends the iteration;
// check Err after Next reports false, as with bufio.Scanner.
type LiveIter struct {
	r       *Reduction
	next    uint32 // next row to decode
	u       uint32 // the decoded row
	cols    []uint32
	vals    []uint16
	base    int64 // CSR index of the decoded row's first entry
	i       int   // next entry of it to offer
	scratch graph.RowScratch
	err     error
}

// Next returns the next surviving edge, or false at the end or on error.
func (it *LiveIter) Next() (Edge, bool) {
	for it.err == nil {
		if it.i < len(it.cols) {
			k := it.i
			it.i++
			if !it.r.Mask[it.base+int64(k)] {
				return Edge{U: it.u, V: it.cols[k], Len: it.vals[k]}, true
			}
			continue
		}
		if int(it.next) >= it.r.g.n {
			break
		}
		it.u, it.i = it.next, 0
		it.next++
		it.cols, it.vals, it.base, it.err = it.r.g.Row(it.u, &it.scratch)
	}
	return Edge{}, false
}

// Err returns the decode error that cut the iteration short, if any.
func (it *LiveIter) Err() error { return it.err }

// LiveView returns a traversal view over the surviving edges only,
// satisfying sgraph.Traversable so unitig extraction runs directly on
// the masked compressed store (the cluster path uses this; the
// single-node path round-trips through edges.kv instead).
func (r *Reduction) LiveView() *LiveView { return &LiveView{r: r} }

// LiveView adapts a Reduction to sgraph.Traversable.
type LiveView struct{ r *Reduction }

// NumReads implements sgraph.Traversable.
func (v *LiveView) NumReads() int { return v.r.g.NumReads() }

// NumVertices implements sgraph.Traversable.
func (v *LiveView) NumVertices() int { return v.r.g.NumVertices() }

// EachOut visits the live out-edges of u in ascending target order. The
// reduction decoded every row to build the mask, so the walk cannot fail
// here.
func (v *LiveView) EachOut(u uint32, fn func(to uint32, l uint16) bool) {
	_ = v.r.g.walkRow(u, func(k int64, to uint32, l uint16) bool {
		return v.r.Mask[k] || fn(to, l)
	})
}

// TransitiveReduce runs the shared masked two-hop reducer
// (graph.TransitiveReduceTwoHop, which documents the predicate, tiling
// and metering) over the compressed store, decoding rows into pooled
// scratch. The predicate and the compute charges are store-independent,
// so the surviving edge set — and hence the downstream unitigs and
// contigs — is byte-identical to the spmat backend's on the same input;
// the H2D traffic is the compressed bytes, which is where the
// representation's bandwidth win shows up. A row that fails to decode
// fails the pass.
func (g *Graph) TransitiveReduce(ctx context.Context, cfg ReduceConfig) (*Reduction, error) {
	res, err := graph.TransitiveReduceTwoHop(ctx, g, "succinct", cfg)
	if err != nil {
		return nil, err
	}
	return &Reduction{g: g, TwoHopResult: *res}, nil
}
