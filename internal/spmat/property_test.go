package spmat

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/succinct"
)

// closure computes the Floyd–Warshall reachability closure over the
// given directed edges. Small n only (tests).
func closure(n int, edges [][2]uint32) []bool {
	reach := make([]bool, n*n)
	for _, e := range edges {
		reach[int(e[0])*n+int(e[1])] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i*n+k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k*n+j] {
					reach[i*n+j] = true
				}
			}
		}
	}
	return reach
}

// TestReducePreservesReachability is the backend's core safety property:
// on random DAG-ish overlap graphs, masking transitive edges never
// changes which vertices can reach which.
func TestReducePreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		numReads := 8 + rng.Intn(25)
		vertexLen := 60 + rng.Intn(80)
		m, _ := randomOverlapMatrix(rng, numReads, vertexLen)
		fuzz := 0
		if trial%3 == 1 {
			fuzz = 1 + rng.Intn(8)
		}
		red, err := m.TransitiveReduce(context.Background(), ReduceConfig{
			Device: testDevice(), VertexLen: lenFn(vertexLen), Fuzz: fuzz,
			RowBatch: 1 + rng.Intn(16),
		})
		if err != nil {
			t.Fatal(err)
		}
		var all, live [][2]uint32
		m.Edges(func(e Edge) { all = append(all, [2]uint32{e.U, e.V}) })
		liveEdges(m, red, func(e Edge) { live = append(live, [2]uint32{e.U, e.V}) })
		n := m.NumVertices()
		before, after := closure(n, all), closure(n, live)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("trial %d (fuzz %d): reachability %d->%d changed (%v -> %v), removed %d/%d",
					trial, fuzz, i/n, i%n, before[i], after[i], red.Removed, m.NNZ())
			}
		}
	}
}

// FuzzTwoHopMatchesMyers holds the masked two-hop reducer to Myers'
// sweep (sgraph.TransitiveReduce), the oracle, on random overlap sets
// (randomOverlaps) with fuzz 0 and above and with repeat-like noise:
//
//   - every edge the sweep removes, the mask removes too. The converse need
//     not hold — the sweep skips witness chains whose first hop was
//     already eliminated; the matrix product considers all chains of the
//     original A;
//   - when the removed counts agree, the live sets are equal, lengths
//     included;
//   - the succinct store, built from the same edges, masks exactly the
//     same entries.
//
// The seed corpus is 25 trials shaped like the earlier fixed-seed test's
// (a fuzz above 0 on every third), so go test runs them all.
func FuzzTwoHopMatchesMyers(f *testing.F) {
	for trial := 0; trial < 25; trial++ {
		fuzz := 0
		if trial%3 == 2 {
			fuzz = 1 + trial%8
		}
		f.Add(int64(202+trial), uint8(fuzz), uint8(trial%4), uint8(trial))
	}
	f.Fuzz(func(t *testing.T, seed int64, fuzz, repeats, rowBatch uint8) {
		rng := rand.New(rand.NewSource(seed))
		numReads := 8 + rng.Intn(25)
		vertexLen := 60 + rng.Intn(80)
		m, g := buildBoth(numReads, randomOverlaps(rng, numReads, vertexLen, int(repeats%4)*numReads))
		cfg := ReduceConfig{
			Device: testDevice(), VertexLen: lenFn(vertexLen), Fuzz: int(fuzz % 16),
			RowBatch: 1 + int(rowBatch%16),
		}
		sgRemoved := g.TransitiveReduce(cfg.VertexLen, cfg.Fuzz)
		red, err := m.TransitiveReduce(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := map[[2]uint32]uint16{}
		liveEdges(m, red, func(e Edge) { live[[2]uint32{e.U, e.V}] = e.Len })
		for _, e := range g.ReducedEdges() {
			if _, ok := live[[2]uint32{e.U, e.V}]; ok {
				t.Fatalf("fuzz %d: Myers removed %d->%d but the two-hop mask kept it", cfg.Fuzz, e.U, e.V)
			}
		}
		if red.Removed < sgRemoved {
			t.Fatalf("fuzz %d: two-hop removed %d < Myers removed %d", cfg.Fuzz, red.Removed, sgRemoved)
		}
		if red.Removed == sgRemoved {
			sgLive := g.DirectedEdges()
			if len(sgLive) != len(live) {
				t.Fatalf("equal removed counts (%d), live edges: two-hop %d, Myers %d",
					red.Removed, len(live), len(sgLive))
			}
			for _, e := range sgLive {
				if l, ok := live[[2]uint32{e.U, e.V}]; !ok || l != e.Len {
					t.Fatalf("equal removed counts (%d): Myers keeps %d->%d (len %d), two-hop does not",
						red.Removed, e.U, e.V, e.Len)
				}
			}
		}
		sg, err := succinct.FromEdgeRuns(m.NumVertices(), sliceIter(collect(m)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Device = testDevice()
		sred, err := sg.TransitiveReduce(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sred.Mask, red.Mask) {
			t.Fatalf("succinct masked %d entries, spmat %d, and the masks differ", sred.Removed, red.Removed)
		}
	})
}

// TestReduceAgreesWithSgraphOnChains checks exact agreement on clean
// linear-chain graphs, where both reductions must remove exactly the
// skip edges and the surviving edge sets must be identical.
func TestReduceAgreesWithSgraphOnChains(t *testing.T) {
	const numReads, vertexLen = 12, 100
	b := NewBuilder(numReads)
	g := sgraph.New(numReads)
	for i := 0; i+1 < numReads; i++ {
		b.AddOverlap(uint32(2*i), uint32(2*(i+1)), 70)
		g.AddOverlap(uint32(2*i), uint32(2*(i+1)), 70)
		if i+2 < numReads {
			b.AddOverlap(uint32(2*i), uint32(2*(i+2)), 40)
			g.AddOverlap(uint32(2*i), uint32(2*(i+2)), 40)
		}
	}
	m := b.Build()
	sgRemoved := g.TransitiveReduce(lenFn(vertexLen), 0)
	red, err := m.TransitiveReduce(context.Background(), ReduceConfig{
		Device: testDevice(), VertexLen: lenFn(vertexLen),
	})
	if err != nil {
		t.Fatal(err)
	}
	if red.Removed != sgRemoved {
		t.Fatalf("removed: spmat %d != sgraph %d", red.Removed, sgRemoved)
	}
	liveSet := make(map[[2]uint32]uint16)
	liveEdges(m, red, func(e Edge) { liveSet[[2]uint32{e.U, e.V}] = e.Len })
	sgLive := g.DirectedEdges()
	if len(sgLive) != len(liveSet) {
		t.Fatalf("live edges: spmat %d != sgraph %d", len(liveSet), len(sgLive))
	}
	for _, e := range sgLive {
		if l, ok := liveSet[[2]uint32{e.U, e.V}]; !ok || l != e.Len {
			t.Errorf("edge %d->%d (len %d) mismatch in spmat live set", e.U, e.V, e.Len)
		}
	}
}
