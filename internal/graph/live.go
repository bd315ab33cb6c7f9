package graph

// LiveView is the surviving edge set of a reduced store: every entry of a
// RowStore that mask does not mark, in the store's entry order (rows
// ascending, columns ascending within a row). A nil mask means every entry
// is live — the shape Compress sees after reloading edges.kv. It is the
// one masked iterator every row-based store shares: Next pulls the edges
// to persist, EachOut makes the view an sgraph.Traversable so unitigs are
// spelled straight off the store, no adjacency-list copy.
//
// A row the store cannot produce ends the iteration it occurred in and is
// latched; check Err after the walk, as with bufio.Scanner. A view is a
// single cursor plus scratch and is not safe for concurrent use; EachOut
// may be called from inside an EachOut callback.
type LiveView struct {
	st   RowStore
	mask []bool
	err  error

	// Next's cursor: the decoded row and the position inside it.
	row, rowNext uint32
	cols         []uint32
	vals         []uint16
	base         int64
	i            int
	cursor       RowScratch

	// EachOut's decode buffers, one per nesting depth.
	nest  []*RowScratch
	depth int
}

// NewLiveView returns the view of st's entries that mask (indexed in entry
// order, len NNZ) leaves unmarked; mask may be nil.
func NewLiveView(st RowStore, mask []bool) *LiveView {
	return &LiveView{st: st, mask: mask}
}

// NumVertices implements sgraph.Traversable.
func (v *LiveView) NumVertices() int { return v.st.NumVertices() }

// NumReads implements sgraph.Traversable: vertices are read strands, two
// per read.
func (v *LiveView) NumReads() int { return v.st.NumVertices() / 2 }

// Err returns the first row error any walk over the view hit.
func (v *LiveView) Err() error { return v.err }

func (v *LiveView) live(k int64) bool { return v.mask == nil || !v.mask[k] }

// Next returns the next live edge in entry order, or false at the end or
// after an error.
func (v *LiveView) Next() (Edge, bool) {
	for v.err == nil {
		if v.i < len(v.cols) {
			k := v.i
			v.i++
			if v.live(v.base + int64(k)) {
				return Edge{U: v.row, V: v.cols[k], Len: v.vals[k]}, true
			}
			continue
		}
		if int(v.rowNext) >= v.st.NumVertices() {
			break
		}
		v.row, v.i = v.rowNext, 0
		v.rowNext++
		v.cols, v.vals, v.base, v.err = v.st.Row(v.row, &v.cursor)
	}
	return Edge{}, false
}

// EachOut visits the live out-edges of u in ascending target order,
// stopping early when fn returns false.
func (v *LiveView) EachOut(u uint32, fn func(to uint32, l uint16) bool) {
	if v.depth == len(v.nest) {
		v.nest = append(v.nest, new(RowScratch))
	}
	sc := v.nest[v.depth]
	v.depth++
	cols, vals, base, err := v.st.Row(u, sc) // no columns on error
	if err != nil && v.err == nil {
		v.err = err
	}
	for k, to := range cols {
		if v.live(base+int64(k)) && !fn(to, vals[k]) {
			break
		}
	}
	v.depth--
}
