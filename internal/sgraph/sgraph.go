// Package sgraph holds two things: the reference string graph of Section
// II-A.2, reduced by Myers' sweep, and the unitig walk every string-graph
// engine spells contigs with.
//
// The reference (AddOverlap, TransitiveReduce, DirectedEdges,
// ReducedEdges, NumEdges) is a test oracle: every suffix-prefix overlap
// becomes an edge and Myers' (2005) linear sweep marks the transitive
// ones. The pipeline's reducer, graph.TransitiveReduceTwoHop behind the
// spmat and succinct backends, is held to it: it must remove a superset
// of the sweep's edges, and the same set whenever the counts agree.
//
// The walk (UnitigsOf over any Traversable, and Graph.Unitigs over an
// adjacency list rebuilt with InstallEdge) spells maximal unambiguous
// chains; it runs in production.
package sgraph

import (
	"sort"

	"repro/internal/bitvec"
	"repro/internal/dna"
	"repro/internal/graph"
)

// Edge is one directed overlap edge in the graph.
type Edge struct {
	To  uint32
	Len uint16
	// reduced marks the edge transitive (removable without information
	// loss).
	reduced bool
}

// Graph is a string graph over 2*numReads vertices, held as adjacency
// lists.
type Graph struct {
	numReads int
	adj      [][]Edge
}

// New creates an empty graph for numReads reads.
func New(numReads int) *Graph {
	return &Graph{
		numReads: numReads,
		adj:      make([][]Edge, 2*numReads),
	}
}

// NumReads returns the read count.
func (g *Graph) NumReads() int { return g.numReads }

// NumVertices returns 2*NumReads.
func (g *Graph) NumVertices() int { return 2 * g.numReads }

// AddOverlap records the candidate overlap (u, v, l) and its complement
// (v', u', l) under graph.OverlapEdges' rule (self-loops and hairpins are
// rejected); duplicate edges (same u, v) keep the longest overlap.
func (g *Graph) AddOverlap(u, v uint32, l uint16) bool {
	e, ec, ok := graph.OverlapEdges(u, v, l)
	if ok {
		g.addEdge(e)
		g.addEdge(ec)
	}
	return ok
}

func (g *Graph) addEdge(e graph.Edge) {
	row := g.adj[e.U]
	for i := range row {
		if row[i].To == e.V {
			row[i].Len = max(row[i].Len, e.Len)
			return
		}
	}
	g.adj[e.U] = append(row, Edge{To: e.V, Len: e.Len})
}

// InstallEdge appends a single directed edge verbatim, without the
// duplicate-merging or complement bookkeeping of AddOverlap. It exists
// for rebuilding a reduced graph from a persisted edge list: replaying
// DirectedEdges() through InstallEdge reproduces the live adjacency
// structure (and hence Unitigs output) exactly.
func (g *Graph) InstallEdge(u, v uint32, l uint16) {
	g.adj[u] = append(g.adj[u], Edge{To: v, Len: l})
}

// DirectedEdges returns every live (non-reduced) directed edge in vertex
// order, preserving each vertex's adjacency order. After TransitiveReduce
// the adjacency lists are deterministically sorted, so the returned list
// is a stable serialization of the reduced graph.
func (g *Graph) DirectedEdges() []graph.Edge {
	var out []graph.Edge
	for u, es := range g.adj {
		for _, e := range es {
			if !e.reduced {
				out = append(out, graph.Edge{U: uint32(u), V: e.To, Len: e.Len})
			}
		}
	}
	return out
}

// ReducedEdges returns every directed edge TransitiveReduce marked
// transitive, in vertex order, preserving adjacency order — the
// complement of DirectedEdges. Alternative reduction backends are
// cross-checked against it: the spmat SpGEMM pass must remove a superset
// of these edges (see package spmat).
func (g *Graph) ReducedEdges() []graph.Edge {
	var out []graph.Edge
	for u, es := range g.adj {
		for _, e := range es {
			if e.reduced {
				out = append(out, graph.Edge{U: uint32(u), V: e.To, Len: e.Len})
			}
		}
	}
	return out
}

// NumEdges returns the number of directed edges, optionally counting
// reduced ones.
func (g *Graph) NumEdges(includeReduced bool) int64 {
	var n int64
	for _, es := range g.adj {
		for _, e := range es {
			if includeReduced || !e.reduced {
				n++
			}
		}
	}
	return n
}

// overhang of an edge from v: the bases v contributes before its
// successor takes over.
func overhang(vertexLen func(uint32) int, v uint32, e Edge) int {
	return vertexLen(v) - int(e.Len)
}

// TransitiveReduce marks transitive edges following Myers' linear-time
// sweep: for each vertex v, an out-neighbor x is redundant when some
// other out-neighbor w reaches x with overhangs that add up to v's
// direct edge to x (within fuzz). vertexLen supplies sequence lengths;
// fuzz tolerates small length slack (0 for exact, error-free data).
// Returns the number of directed edges marked.
func (g *Graph) TransitiveReduce(vertexLen func(uint32) int, fuzz int) int64 {
	const (
		vacant = iota
		inPlay
		eliminated
	)
	mark := make([]uint8, g.NumVertices())
	// direct[x] holds v's direct-edge overhang to x while v is processed.
	direct := make(map[uint32]int)
	var removed int64

	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		es := g.adj[v]
		if len(es) < 2 {
			continue
		}
		// Ascending overhang order: nearer successors first.
		sort.Slice(es, func(i, j int) bool {
			oi, oj := overhang(vertexLen, v, es[i]), overhang(vertexLen, v, es[j])
			if oi != oj {
				return oi < oj
			}
			return es[i].To < es[j].To
		})
		longest := overhang(vertexLen, v, es[len(es)-1]) + fuzz
		for _, e := range es {
			mark[e.To] = inPlay
			direct[e.To] = overhang(vertexLen, v, e)
		}
		for _, e := range es {
			if mark[e.To] != inPlay {
				continue
			}
			ov := overhang(vertexLen, v, e)
			// Edges already marked transitive still witness eliminations:
			// Myers marks during the sweep and removes only afterwards, so
			// a witness chain may run through a marked edge.
			for _, e2 := range g.adj[e.To] {
				total := ov + overhang(vertexLen, e.To, e2)
				if total > longest {
					continue
				}
				if mark[e2.To] != inPlay {
					continue
				}
				if d := direct[e2.To]; total >= d-fuzz && total <= d+fuzz {
					mark[e2.To] = eliminated
				}
			}
		}
		for i := range es {
			if mark[es[i].To] == eliminated {
				es[i].reduced = true
				removed++
			}
			mark[es[i].To] = vacant
			delete(direct, es[i].To)
		}
	}
	return removed
}

// EachOut calls fn for each live (non-reduced) out-edge of v in
// adjacency order, stopping early when fn returns false. It implements
// Traversable.
func (g *Graph) EachOut(v uint32, fn func(to uint32, l uint16) bool) {
	for _, e := range g.adj[v] {
		if e.reduced {
			continue
		}
		if !fn(e.To, e.Len) {
			return
		}
	}
}

// Traversable is the read-only contract unitig extraction needs from a
// reduced string graph. Both this package's adjacency-list Graph and
// the compressed store in package succinct satisfy it, so the same
// walk (and hence byte-identical contigs) runs over either
// representation.
type Traversable interface {
	NumReads() int
	NumVertices() int
	// EachOut visits the live out-edges of v in ascending target order,
	// stopping early when fn returns false.
	EachOut(v uint32, fn func(to uint32, l uint16) bool)
}

// Unitigs extracts maximal unambiguous chains from the reduced graph:
// walks that only follow an edge v->w when v has exactly one live
// out-edge and w exactly one live in-edge. Each read joins at most one
// unitig (a unitig and its reverse complement count once), so the paths
// feed contig generation exactly like the greedy traversal does.
func (g *Graph) Unitigs(vertexLen func(uint32) int, includeSingletons bool) []graph.Path {
	return UnitigsOf(g, vertexLen, includeSingletons)
}

// bget and bset wrap the error-returning bitvec accessors for the
// visited vector, which is sized to NumReads here so read indices are
// always in range.
func bget(v *bitvec.Vector, i uint32) bool {
	set, _ := v.Get(i)
	return set
}

func bset(v *bitvec.Vector, i uint32) {
	_ = v.Set(i)
}

// UnitigsOf runs the unitig walk over any Traversable graph. The logic
// is identical to the historical Graph.Unitigs; it is factored over the
// interface so alternative graph stores produce byte-identical paths.
func UnitigsOf(g Traversable, vertexLen func(uint32) int, includeSingletons bool) []graph.Path {
	numVerts := uint32(g.NumVertices())
	indeg := make([]int32, numVerts)
	for v := uint32(0); v < numVerts; v++ {
		g.EachOut(v, func(to uint32, l uint16) bool {
			indeg[to]++
			return true
		})
	}

	liveOutDegree := func(v uint32) int {
		n := 0
		g.EachOut(v, func(to uint32, l uint16) bool {
			n++
			return true
		})
		return n
	}
	// soleOut returns the only live out-edge of v; ok is false when v
	// has zero or multiple live out-edges.
	soleOut := func(v uint32) (to uint32, l uint16, ok bool) {
		n := 0
		g.EachOut(v, func(t uint32, ln uint16) bool {
			to, l = t, ln
			n++
			return n < 2
		})
		return to, l, n == 1
	}

	visited := bitvec.New(g.NumReads())
	var paths []graph.Path

	// isChainStart reports whether v begins a maximal chain: it cannot be
	// extended backwards unambiguously.
	isChainStart := func(v uint32) bool {
		if indeg[v] != 1 {
			return true
		}
		// One predecessor: extendable backwards only if that predecessor
		// has out-degree 1. Find it via the complement graph: u->v exists
		// iff v'->u' exists, so v's predecessors are the complements of
		// v''s successors' complements.
		start := true
		g.EachOut(dna.ComplementVertex(v), func(to uint32, l uint16) bool {
			pred := dna.ComplementVertex(to)
			start = liveOutDegree(pred) != 1
			return false
		})
		return start
	}

	walk := func(start uint32) graph.Path {
		var p graph.Path
		cur := start
		for {
			bset(visited, dna.ReadOfVertex(cur))
			to, l, ok := soleOut(cur)
			if !ok || indeg[to] != 1 || bget(visited, dna.ReadOfVertex(to)) {
				p = append(p, graph.PathStep{V: cur, Overhang: uint16(vertexLen(cur))})
				return p
			}
			p = append(p, graph.PathStep{V: cur, Overhang: uint16(vertexLen(cur) - int(l))})
			cur = to
		}
	}

	for v := uint32(0); v < numVerts; v++ {
		if bget(visited, dna.ReadOfVertex(v)) || liveOutDegree(v) == 0 {
			continue
		}
		if !isChainStart(v) {
			continue
		}
		paths = append(paths, walk(v))
	}
	// Residual cycles: every remaining vertex with edges sits on a cycle
	// of simple edges; break each arbitrarily.
	for v := uint32(0); v < numVerts; v++ {
		if bget(visited, dna.ReadOfVertex(v)) || liveOutDegree(v) == 0 {
			continue
		}
		paths = append(paths, walk(v))
	}
	if includeSingletons {
		for r := uint32(0); r < uint32(g.NumReads()); r++ {
			if bget(visited, r) {
				continue
			}
			fwd := dna.ForwardVertex(r)
			paths = append(paths, graph.Path{{V: fwd, Overhang: uint16(vertexLen(fwd))}})
			bset(visited, r)
		}
	}
	return paths
}

// ApproxBytes estimates the host-memory footprint.
func (g *Graph) ApproxBytes() int64 {
	var edges int64
	for _, es := range g.adj {
		edges += int64(cap(es))
	}
	return edges*8 + int64(len(g.adj))*24
}
