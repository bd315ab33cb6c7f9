// Package graph implements LaSAGNA's greedy string graph (Sections II-A.2
// and III-C) and its path traversal (Section III-D, first stage).
//
// Vertices are read strands: read i contributes forward vertex 2i and
// reverse-complement vertex 2i+1. The graph is greedy — each vertex keeps
// at most one outgoing and one incoming edge. A candidate edge (u, v, l),
// meaning the l-suffix of u matches the l-prefix of v, is accepted iff
// neither u nor v' (the complement of v) already has an outgoing edge;
// acceptance records both (u, v, l) and the implied complementary edge
// (v', u', l) and sets both out-degree bits. Because in-degree(v) equals
// out-degree(v'), one bit-vector suffices — the same bit-vector that the
// distributed reduce phase forwards between nodes as a token.
//
// Candidates must be offered in descending overlap length (the pipeline
// processes partitions from l_max-1 down to l_min), which is what makes
// the greedy choice "keep the longest overlap per read".
package graph

import (
	"repro/internal/bitvec"
	"repro/internal/dna"
	"repro/internal/kv"
)

// NoVertex marks the absence of an out-edge.
const NoVertex = ^uint32(0)

// bget and bset wrap the error-returning bitvec accessors for the
// vectors this package sizes itself (2*numReads bits at construction,
// indexed by vertex id < 2*numReads), where out-of-range is impossible.
func bget(v *bitvec.Vector, i uint32) bool {
	set, _ := v.Get(i)
	return set
}

func bset(v *bitvec.Vector, i uint32) {
	_ = v.Set(i)
}

// Edge is one directed overlap edge: the Len-suffix of U matches the
// Len-prefix of V. It is the one edge type every graph store, the
// pipeline and the cluster share.
type Edge struct {
	U, V uint32
	Len  uint16
}

// Pair encodes the edge as an edges.kv record: U and V pack into Key.Hi,
// the overlap length into Key.Lo, Val is unused. Records therefore sort by
// (U, V, Len) — row-major store order, duplicates adjacent.
func (e Edge) Pair() kv.Pair {
	return kv.Pair{Key: kv.Key{Hi: uint64(e.U)<<32 | uint64(e.V), Lo: uint64(e.Len)}}
}

// EdgeOfPair decodes an edges.kv record.
func EdgeOfPair(p kv.Pair) Edge {
	return Edge{U: uint32(p.Key.Hi >> 32), V: uint32(p.Key.Hi), Len: uint16(p.Key.Lo)}
}

// OverlapEdges returns the two directed edges a candidate overlap
// (u, v, l) stands for — itself and its complement (v', u', l) — or
// ok=false for a self-loop (u == v) or a hairpin (u == v'), which no
// graph store admits.
func OverlapEdges(u, v uint32, l uint16) (e, ec Edge, ok bool) {
	if u == v || u == dna.ComplementVertex(v) {
		return Edge{}, Edge{}, false
	}
	return Edge{U: u, V: v, Len: l},
		Edge{U: dna.ComplementVertex(v), V: dna.ComplementVertex(u), Len: l}, true
}

// Graph is the greedy string graph.
type Graph struct {
	numReads int
	out      *bitvec.Vector // out-degree bits, indexed by vertex
	next     []uint32       // out-edge target per vertex
	olen     []uint16       // out-edge overlap length per vertex
	numEdges int64
}

// New creates a graph over numReads reads (2*numReads vertices).
func New(numReads int) *Graph {
	next := make([]uint32, 2*numReads)
	for i := range next {
		next[i] = NoVertex
	}
	return &Graph{
		numReads: numReads,
		out:      bitvec.New(2 * numReads),
		next:     next,
		olen:     make([]uint16, 2*numReads),
	}
}

// NumReads returns the number of reads.
func (g *Graph) NumReads() int { return g.numReads }

// NumVertices returns the number of vertices (2 per read).
func (g *Graph) NumVertices() int { return 2 * g.numReads }

// NumEdges returns the number of directed edges added (complementary
// edges counted).
func (g *Graph) NumEdges() int64 { return g.numEdges }

// AddCandidate offers the candidate edge (u, v, l) and reports whether it
// was accepted. Self-loops (u == v) and hairpins (u == v') are rejected,
// as is any candidate whose source u or complementary source v' already
// has an outgoing edge.
func (g *Graph) AddCandidate(u, v uint32, l uint16) bool {
	e, ec, ok := OverlapEdges(u, v, l)
	if !ok || bget(g.out, e.U) || bget(g.out, ec.U) {
		return false
	}
	g.InstallEdge(e)
	g.InstallEdge(ec)
	return true
}

// InstallEdge records a single directed edge without the greedy checks
// and without adding the complementary edge. It rebuilds a graph from a
// persisted edges.kv (the greedy engine's Load): those edges passed the
// greedy discipline when they were accepted, and the file holds both
// halves of every complementary pair.
func (g *Graph) InstallEdge(e Edge) {
	bset(g.out, e.U)
	g.next[e.U] = e.V
	g.olen[e.U] = e.Len
	g.numEdges++
}

// OutEdge returns the out-edge of v, if any.
func (g *Graph) OutEdge(v uint32) (target uint32, overlap uint16, ok bool) {
	t := g.next[v]
	if t == NoVertex {
		return 0, 0, false
	}
	return t, g.olen[v], true
}

// HasIncoming reports whether v has an incoming edge, which by complement
// symmetry is whether v' has an outgoing one.
func (g *Graph) HasIncoming(v uint32) bool {
	return bget(g.out, dna.ComplementVertex(v))
}

// Edges returns all directed edges in vertex order — the order the greedy
// engine's Live persists them to edges.kv.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for v, t := range g.next {
		if t != NoVertex {
			out = append(out, Edge{U: uint32(v), V: t, Len: g.olen[v]})
		}
	}
	return out
}

// ApproxBytes estimates the host-memory footprint of the graph, which the
// paper sizes at ~5 bytes/edge plus the bit-vector (Section III-C).
func (g *Graph) ApproxBytes() int64 {
	return 4*int64(len(g.next)) + 2*int64(len(g.olen)) + g.out.Bytes()
}

// PathStep is one read strand within a path with its overhang length: the
// number of leading bases the strand contributes to the contig (its length
// minus its overlap with the next read; the last read contributes its full
// length).
type PathStep struct {
	V        uint32
	Overhang uint16
}

// Path is a maximal unambiguous walk through the graph.
type Path []PathStep

// TraverseOptions controls path extraction.
type TraverseOptions struct {
	// IncludeSingletons emits a one-step path for every read that ended up
	// in no path at all, so the contig set covers every input read (the
	// paper assigns isolated reads overhang equal to their length).
	IncludeSingletons bool
	// BreakCycles walks residual cycles (components where every vertex
	// has both in- and out-degree) starting from an arbitrary vertex.
	BreakCycles bool
}

// Traverse extracts paths. vertexLen must return the sequence length of a
// vertex. Seeds are vertices with out-degree 1 and in-degree 0; each read
// is used at most once across all paths (a read and its complement cannot
// both be emitted, which also deduplicates every path against its own
// reverse complement).
func (g *Graph) Traverse(vertexLen func(uint32) int, opt TraverseOptions) []Path {
	visited := bitvec.New(g.numReads)
	var paths []Path

	walk := func(seed uint32) Path {
		var p Path
		cur := seed
		for {
			bset(visited, dna.ReadOfVertex(cur))
			nxt, l, ok := g.OutEdge(cur)
			if !ok || bget(visited, dna.ReadOfVertex(nxt)) {
				p = append(p, PathStep{V: cur, Overhang: uint16(vertexLen(cur))})
				return p
			}
			p = append(p, PathStep{V: cur, Overhang: uint16(vertexLen(cur) - int(l))})
			cur = nxt
		}
	}

	// Stage 1: linear paths from in-degree-0, out-degree-1 seeds.
	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		if g.next[v] == NoVertex || g.HasIncoming(v) {
			continue
		}
		if bget(visited, dna.ReadOfVertex(v)) {
			continue
		}
		paths = append(paths, walk(v))
	}
	// Stage 2: residual cycles.
	if opt.BreakCycles {
		for v := uint32(0); v < uint32(g.NumVertices()); v++ {
			if g.next[v] == NoVertex || bget(visited, dna.ReadOfVertex(v)) {
				continue
			}
			paths = append(paths, walk(v))
		}
	}
	// Stage 3: singleton reads.
	if opt.IncludeSingletons {
		for r := uint32(0); r < uint32(g.numReads); r++ {
			if bget(visited, r) {
				continue
			}
			fwd := dna.ForwardVertex(r)
			paths = append(paths, Path{{V: fwd, Overhang: uint16(vertexLen(fwd))}})
			bset(visited, r)
		}
	}
	return paths
}
