package graph

import (
	"testing"
)

func lenFn(n int) func(uint32) int { return func(uint32) int { return n } }

func TestAddCandidateGreedy(t *testing.T) {
	g := New(4)
	// First edge from vertex 0 wins.
	if !g.AddCandidate(0, 2, 50) {
		t.Fatal("first candidate should be accepted")
	}
	// Second out-edge from 0 rejected (greedy).
	if g.AddCandidate(0, 4, 40) {
		t.Fatal("second out-edge from same vertex should be rejected")
	}
	// Another in-edge to 2 rejected: complement 3 already has out-edge.
	if g.AddCandidate(4, 2, 40) {
		t.Fatal("second in-edge to same vertex should be rejected")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (edge + complement)", g.NumEdges())
	}
	// The complementary edge (v'=3) -> (u'=1) must exist.
	if tgt, l, ok := g.OutEdge(3); !ok || tgt != 1 || l != 50 {
		t.Errorf("complement edge = (%d,%d,%v)", tgt, l, ok)
	}
}

func TestAddCandidateRejectsSelfAndHairpin(t *testing.T) {
	g := New(2)
	if g.AddCandidate(0, 0, 10) {
		t.Error("self-loop should be rejected")
	}
	if g.AddCandidate(0, 1, 10) {
		t.Error("hairpin (u to its own complement) should be rejected")
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestInDegreeViaComplement(t *testing.T) {
	g := New(3)
	g.AddCandidate(0, 2, 30)
	if !g.HasIncoming(2) {
		t.Error("vertex 2 should have an incoming edge")
	}
	if g.HasIncoming(0) {
		t.Error("vertex 0 should have no incoming edge")
	}
	// Complement edge gives 1 an incoming edge (3 -> 1).
	if !g.HasIncoming(1) {
		t.Error("vertex 1 should have incoming via complement edge")
	}
}

func TestDescendingLengthPreference(t *testing.T) {
	// Candidates offered in descending l: the longest overlap must win.
	g := New(3)
	if !g.AddCandidate(0, 2, 90) {
		t.Fatal("long overlap rejected")
	}
	if g.AddCandidate(0, 4, 80) {
		t.Fatal("shorter overlap should lose to existing edge")
	}
	if tgt, l, _ := g.OutEdge(0); tgt != 2 || l != 90 {
		t.Errorf("out edge = (%d,%d)", tgt, l)
	}
}

func TestEdgesListing(t *testing.T) {
	g := New(4)
	g.AddCandidate(0, 2, 10)
	g.AddCandidate(2, 4, 9)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("len(edges) = %d, want 4", len(edges))
	}
	want := map[Edge]bool{
		{0, 2, 10}: true, {3, 1, 10}: true,
		{2, 4, 9}: true, {5, 3, 9}: true,
	}
	for _, e := range edges {
		if !want[e] {
			t.Errorf("unexpected edge %+v", e)
		}
	}
}

func TestTraverseLinearChain(t *testing.T) {
	// Chain 0 -> 2 -> 4 with overlaps 60, 55; read length 100.
	g := New(3)
	g.AddCandidate(0, 2, 60)
	g.AddCandidate(2, 4, 55)
	paths := g.Traverse(lenFn(100), TraverseOptions{})
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1 (RC path must be deduplicated)", len(paths))
	}
	p := paths[0]
	if len(p) != 3 {
		t.Fatalf("path length = %d, want 3", len(p))
	}
	want := []PathStep{{0, 40}, {2, 45}, {4, 100}}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("step %d = %+v, want %+v", i, p[i], want[i])
		}
	}
}

func TestTraverseSkipsReverseDuplicate(t *testing.T) {
	g := New(2)
	g.AddCandidate(0, 2, 30)
	paths := g.Traverse(lenFn(50), TraverseOptions{})
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	// Either the forward (0->2) or reverse (3->1) orientation, not both.
	if paths[0][0].V != 0 && paths[0][0].V != 3 {
		t.Errorf("unexpected seed %d", paths[0][0].V)
	}
}

func TestTraverseSingletons(t *testing.T) {
	g := New(3)
	g.AddCandidate(0, 2, 30)
	paths := g.Traverse(lenFn(50), TraverseOptions{IncludeSingletons: true})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (chain + singleton)", len(paths))
	}
	var singleton Path
	for _, p := range paths {
		if len(p) == 1 {
			singleton = p
		}
	}
	if singleton == nil || singleton[0].V != 4 || singleton[0].Overhang != 50 {
		t.Errorf("singleton = %+v", singleton)
	}
}

func TestTraverseCycle(t *testing.T) {
	// 0 -> 2 -> 4 -> 0 forms a cycle; without BreakCycles no paths, with
	// it one path covering all three reads.
	g := New(3)
	g.AddCandidate(0, 2, 10)
	g.AddCandidate(2, 4, 10)
	g.AddCandidate(4, 0, 10)
	if paths := g.Traverse(lenFn(20), TraverseOptions{}); len(paths) != 0 {
		t.Fatalf("cycle without BreakCycles: %d paths", len(paths))
	}
	paths := g.Traverse(lenFn(20), TraverseOptions{BreakCycles: true})
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("cycle with BreakCycles: %+v", paths)
	}
	last := paths[0][len(paths[0])-1]
	if last.Overhang != 20 {
		t.Errorf("cycle terminal overhang = %d, want full length", last.Overhang)
	}
}

func TestTraverseBranchStructure(t *testing.T) {
	// Greedy insertion order: 0->2 accepted, then 4->2 rejected, 4->6
	// accepted. Result: two chains 0->2 and 4->6.
	g := New(4)
	if !g.AddCandidate(0, 2, 40) || g.AddCandidate(4, 2, 35) || !g.AddCandidate(4, 6, 30) {
		t.Fatal("unexpected acceptance pattern")
	}
	paths := g.Traverse(lenFn(60), TraverseOptions{})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
}

func TestApproxBytes(t *testing.T) {
	g := New(100)
	if g.ApproxBytes() <= 0 {
		t.Error("ApproxBytes should be positive")
	}
}

func TestOutEdgeMissing(t *testing.T) {
	g := New(1)
	if _, _, ok := g.OutEdge(0); ok {
		t.Error("fresh vertex should have no out-edge")
	}
}
