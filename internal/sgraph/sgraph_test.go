package sgraph

import (
	"strings"
	"testing"

	"repro/internal/contig"
	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/readsim"
	"repro/internal/sga"
)

func lenFn(n int) func(uint32) int { return func(uint32) int { return n } }

// liveOut collects v's live out-edges.
func liveOut(g *Graph, v uint32) []Edge {
	var out []Edge
	g.EachOut(v, func(to uint32, l uint16) bool {
		out = append(out, Edge{To: to, Len: l})
		return true
	})
	return out
}

func TestAddOverlapAndComplement(t *testing.T) {
	g := New(3)
	if !g.AddOverlap(0, 2, 50) {
		t.Fatal("overlap rejected")
	}
	if g.AddOverlap(0, 0, 10) || g.AddOverlap(0, 1, 10) {
		t.Fatal("self/hairpin accepted")
	}
	if g.NumEdges(true) != 2 {
		t.Fatalf("edges = %d, want 2 (edge + complement)", g.NumEdges(true))
	}
	out := liveOut(g, 3)
	if len(out) != 1 || out[0].To != 1 || out[0].Len != 50 {
		t.Errorf("complement edge = %+v", out)
	}
}

func TestAddOverlapDuplicateKeepsLongest(t *testing.T) {
	g := New(2)
	g.AddOverlap(0, 2, 30)
	g.AddOverlap(0, 2, 40)
	g.AddOverlap(0, 2, 20)
	out := liveOut(g, 0)
	if len(out) != 1 || out[0].Len != 40 {
		t.Errorf("out = %+v, want single edge of length 40", out)
	}
}

func TestTransitiveReduceTriangle(t *testing.T) {
	// Reads of length 100 at genomic offsets 0, 20, 40:
	// a->b (80), b->c (80), a->c (60). a->c is transitive.
	g := New(3)
	a, b, c := uint32(0), uint32(2), uint32(4)
	g.AddOverlap(a, b, 80)
	g.AddOverlap(b, c, 80)
	g.AddOverlap(a, c, 60)
	removed := g.TransitiveReduce(lenFn(100), 0)
	if removed != 2 { // a->c and its complement c'->a'
		t.Fatalf("removed = %d, want 2", removed)
	}
	for _, e := range liveOut(g, a) {
		if e.To == c {
			t.Error("transitive edge a->c not reduced")
		}
	}
	if len(liveOut(g, a)) != 1 || len(liveOut(g, b)) != 1 {
		t.Errorf("live out-degrees = %d, %d", len(liveOut(g, a)), len(liveOut(g, b)))
	}
}

func TestTransitiveReduceKeepsInconsistentEdge(t *testing.T) {
	// a->b (overhang 20), b->c (overhang 20), a->c with overhang 50:
	// the overhangs do not add up (50 != 40), so a->c represents a
	// different placement (a repeat) and must survive at fuzz 0.
	g := New(3)
	a, b, c := uint32(0), uint32(2), uint32(4)
	g.AddOverlap(a, b, 80)
	g.AddOverlap(b, c, 80)
	g.AddOverlap(a, c, 50)
	if removed := g.TransitiveReduce(lenFn(100), 0); removed != 0 {
		t.Fatalf("removed = %d, want 0", removed)
	}
	if removed := g.TransitiveReduce(lenFn(100), 10); removed != 2 {
		t.Fatalf("fuzz 10 should reduce the near-consistent edge, removed = %d", removed)
	}
}

func TestUnitigsLinearChain(t *testing.T) {
	// Overlapping windows: offsets 0,40,80 of a 300 bp region with
	// 100 bp reads; after reduction the chain spells one unitig.
	g := New(3)
	g.AddOverlap(0, 2, 60)
	g.AddOverlap(2, 4, 60)
	g.AddOverlap(0, 4, 20)
	g.TransitiveReduce(lenFn(100), 0)
	paths := g.Unitigs(lenFn(100), false)
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(paths))
	}
	if len(paths[0]) != 3 {
		t.Fatalf("path length = %d, want 3", len(paths[0]))
	}
	total := 0
	for _, s := range paths[0] {
		total += int(s.Overhang)
	}
	if total != 40+40+100 {
		t.Errorf("total overhang = %d, want 180", total)
	}
}

func TestUnitigsBreakAtBranch(t *testing.T) {
	// A branch: a->b and a->c with inconsistent overhangs (no reduction);
	// walks must stop at the ambiguity.
	g := New(4)
	g.AddOverlap(0, 2, 80)
	g.AddOverlap(0, 4, 50)
	g.AddOverlap(2, 6, 70)
	g.TransitiveReduce(lenFn(100), 0)
	paths := g.Unitigs(lenFn(100), false)
	// Vertex 0 has two live out-edges; nothing may walk through it.
	for _, p := range paths {
		for i, s := range p {
			if s.V == 0 && i != len(p)-1 {
				t.Errorf("walked through branch vertex: %+v", p)
			}
		}
	}
}

func TestUnitigsSingletons(t *testing.T) {
	g := New(3)
	g.AddOverlap(0, 2, 60)
	paths := g.Unitigs(lenFn(100), true)
	found := false
	for _, p := range paths {
		if len(p) == 1 && p[0].V == 4 && p[0].Overhang == 100 {
			found = true
		}
	}
	if !found {
		t.Error("isolated read should yield a singleton path")
	}
}

func TestUnitigsCycle(t *testing.T) {
	g := New(3)
	g.AddOverlap(0, 2, 60)
	g.AddOverlap(2, 4, 60)
	g.AddOverlap(4, 0, 60)
	paths := g.Unitigs(lenFn(100), false)
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("cycle paths = %+v", paths)
	}
}

// TestFullGraphAssemblesGenome builds the full string graph from exact
// FM-index overlaps, reduces it, and checks the unitigs spell genome
// substrings: the oracle the pipeline's engines are compared with
// assembles on its own.
func TestFullGraphAssemblesGenome(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 3000, Seed: 41})
	rs := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 60, Coverage: 12, Seed: 42})
	rs, _ = dna.Deduplicate(rs)
	ix := sga.BuildIndex(rs)
	g := New(rs.NumReads())
	for v := uint32(0); v < uint32(rs.NumVertices()); v++ {
		ix.OverlapsFrom(v, 30, func(e sga.Edge) {
			// AddOverlap inserts the complement too and dedupes, so every
			// emitted edge can be offered directly.
			g.AddOverlap(e.U, e.V, e.Len)
		})
	}
	before := g.NumEdges(false)
	removed := g.TransitiveReduce(rs.VertexLen, 0)
	if removed == 0 {
		t.Fatal("dense overlap graph should contain transitive edges")
	}
	if g.NumEdges(false) != before-removed {
		t.Fatalf("edge accounting: %d - %d != %d", before, removed, g.NumEdges(false))
	}
	paths := g.Unitigs(rs.VertexLen, false)
	contigs := contig.Generate(contig.Config{Device: gpu.NewDevice(gpu.K40, nil)}, paths, rs)
	if len(contigs) == 0 {
		t.Fatal("no contigs")
	}
	gs, grc := genome.String(), genome.ReverseComplement().String()
	longest := 0
	for i, c := range contigs {
		if !strings.Contains(gs, c.String()) && !strings.Contains(grc, c.String()) {
			t.Errorf("contig %d (len %d) not a genome substring", i, len(c))
		}
		if len(c) > longest {
			longest = len(c)
		}
	}
	if longest < 200 {
		t.Errorf("longest unitig = %d, expected real chains", longest)
	}
}

func TestApproxBytes(t *testing.T) {
	g := New(10)
	g.AddOverlap(0, 2, 10)
	if g.ApproxBytes() <= 0 {
		t.Error("ApproxBytes should be positive")
	}
}
