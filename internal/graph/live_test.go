package graph_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sgraph"
)

// nextEdges drains a fresh view with Next; eachOutEdges walks every row
// with EachOut. Both must yield the same sequence.
func nextEdges(t *testing.T, st graph.RowStore, mask []bool) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	v := graph.NewLiveView(st, mask)
	for e, ok := v.Next(); ok; e, ok = v.Next() {
		out = append(out, e)
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func eachOutEdges(t *testing.T, st graph.RowStore, mask []bool) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	v := graph.NewLiveView(st, mask)
	for u := uint32(0); int(u) < v.NumVertices(); u++ {
		v.EachOut(u, func(to uint32, l uint16) bool {
			out = append(out, graph.Edge{U: u, V: to, Len: l})
			return true
		})
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLiveViewSameEdgesFromBothStores: over random complement-symmetric
// graphs the view yields, from the CSR matrix and from the succinct store
// alike, exactly the unmasked entries in entry order — by Next and by
// EachOut — under no mask, an empty one, a random one and a full one.
func TestLiveViewSameEdgesFromBothStores(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		numReads := 3 + rng.Intn(40)
		m := randomSymmetricGraph(rng, numReads, func(read int) int { return 50 + read%5 })
		g, edges := succinctOf(t, m)
		random, full := make([]bool, len(edges)), make([]bool, len(edges))
		for k := range edges {
			random[k], full[k] = rng.Intn(3) == 0, true
		}
		for name, mask := range map[string][]bool{
			"nil": nil, "none": make([]bool, len(edges)), "random": random, "all": full,
		} {
			var want []graph.Edge
			for k, e := range edges {
				if mask == nil || !mask[k] {
					want = append(want, e)
				}
			}
			for store, st := range map[string]graph.RowStore{"csr": m, "succinct": g} {
				if got := nextEdges(t, st, mask); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d mask %s %s: Next yields %d edges, want %d", trial, name, store, len(got), len(want))
				}
				if got := eachOutEdges(t, st, mask); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d mask %s %s: EachOut yields %d edges, want %d", trial, name, store, len(got), len(want))
				}
			}
		}
	}
}

// TestLiveViewEachOutNestsAndStopsEarly: the unitig walk calls EachOut
// from inside an EachOut callback; the outer row must survive it, and a
// false return must end the row.
func TestLiveViewEachOutNestsAndStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g, edges := succinctOf(t, randomSymmetricGraph(rng, 30, func(int) int { return 60 }))
	rows := map[uint32][]uint32{}
	for _, e := range edges {
		rows[e.U] = append(rows[e.U], e.V)
	}
	v := graph.NewLiveView(g, nil)
	for u, want := range rows {
		var got []uint32
		v.EachOut(u, func(to uint32, _ uint16) bool {
			v.EachOut(to, func(uint32, uint16) bool { return true }) // decodes another row
			got = append(got, to)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d with nested walks = %v, want %v", u, got, want)
		}
		n := 0
		v.EachOut(u, func(uint32, uint16) bool { n++; return false })
		if n != 1 {
			t.Fatalf("row %d: walk visited %d entries after a false return", u, n)
		}
	}
}

// brokenRow fails one row of an otherwise healthy store.
type brokenRow struct {
	graph.RowStore
	bad uint32
}

var errBrokenRow = errors.New("row unreadable")

func (b brokenRow) Row(u uint32, sc *graph.RowScratch) ([]uint32, []uint16, int64, error) {
	if u == b.bad {
		return nil, nil, 0, errBrokenRow
	}
	return b.RowStore.Row(u, sc)
}

// TestLiveViewLatchesRowErrors: a row the store cannot produce ends Next
// for good and empties that row's EachOut; both report it through Err.
func TestLiveViewLatchesRowErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := randomSymmetricGraph(rng, 30, func(int) int { return 60 })
	const bad = 20
	st := brokenRow{m, bad}

	v := graph.NewLiveView(st, nil)
	for e, ok := v.Next(); ok; e, ok = v.Next() {
		if e.U >= bad {
			t.Fatalf("Next yielded %+v at or past the broken row", e)
		}
	}
	if !errors.Is(v.Err(), errBrokenRow) {
		t.Fatalf("Next ended with Err() = %v", v.Err())
	}
	if _, ok := v.Next(); ok {
		t.Fatal("Next resumed after its error")
	}

	v = graph.NewLiveView(st, nil)
	v.EachOut(bad, func(uint32, uint16) bool {
		t.Fatal("EachOut visited an entry of the broken row")
		return false
	})
	if !errors.Is(v.Err(), errBrokenRow) {
		t.Fatalf("EachOut over the broken row left Err() = %v", v.Err())
	}
}

// TestLiveViewAllocatesPerViewNotPerRow: a warm view's EachOut sweep
// allocates nothing, and a full Next walk costs the view and its scratch,
// not a buffer per row.
func TestLiveViewAllocatesPerViewNotPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g, _ := succinctOf(t, randomSymmetricGraph(rng, 120, func(int) int { return 90 }))
	mask := make([]bool, g.NNZ())
	v := graph.NewLiveView(g, mask)
	var sum uint64
	sweep := func() {
		for u := 0; u < g.NumVertices(); u++ {
			v.EachOut(uint32(u), func(to uint32, l uint16) bool {
				sum += uint64(to) + uint64(l)
				return true
			})
		}
	}
	sweep() // grow the scratch
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Errorf("EachOut: %v allocs per sweep of %d rows, want 0", allocs, g.NumVertices())
	}
	walk := func() {
		w := graph.NewLiveView(g, mask)
		for e, ok := w.Next(); ok; e, ok = w.Next() {
			sum += uint64(e.V)
		}
	}
	if allocs := testing.AllocsPerRun(5, walk); allocs > 8 {
		t.Errorf("Next: %v allocs per walk of %d rows, want a handful per view", allocs, g.NumVertices())
	}
	if sum == 0 {
		t.Fatal("walks visited nothing")
	}
}

// TestUnitigsOfLiveViewMatchesInstalledGraph: spelling unitigs straight
// off a store's live view gives the paths an sgraph.Graph gives after
// InstallEdge of the same edges — the copy Compress used to make.
func TestUnitigsOfLiveViewMatchesInstalledGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 12; trial++ {
		numReads := 3 + rng.Intn(40)
		readLen := func(read int) int { return 50 + read%5 }
		vertexLen := func(v uint32) int { return readLen(int(v / 2)) }
		m := randomSymmetricGraph(rng, numReads, readLen)
		g, _ := succinctOf(t, m)
		red, err := m.TransitiveReduce(context.Background(), graph.TwoHopConfig{
			Device: gpu.NewDevice(gpu.K40, nil), VertexLen: vertexLen})
		if err != nil {
			t.Fatal(err)
		}
		for _, mask := range [][]bool{nil, red.Mask} {
			fg := sgraph.New(numReads)
			for _, e := range nextEdges(t, m, mask) {
				fg.InstallEdge(e.U, e.V, e.Len)
			}
			for _, singletons := range []bool{false, true} {
				want := fg.Unitigs(vertexLen, singletons)
				for store, st := range map[string]graph.RowStore{"csr": m, "succinct": g} {
					view := graph.NewLiveView(st, mask)
					got := sgraph.UnitigsOf(view, vertexLen, singletons)
					if err := view.Err(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d masked %v singletons %v %s: %d paths, installed graph %d",
							trial, mask != nil, singletons, store, len(got), len(want))
					}
				}
			}
		}
	}
}
