package succinct

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/spmat"
	"repro/internal/stats"
)

func testDevice() *gpu.Device { return gpu.NewDevice(gpu.K40, nil) }

func sliceIter(edges []Edge) func() (Edge, bool, error) {
	i := 0
	return func() (Edge, bool, error) {
		if i >= len(edges) {
			return Edge{}, false, nil
		}
		e := edges[i]
		i++
		return e, true, nil
	}
}

// randomSortedEdges produces a CSR-ordered edge stream with duplicates.
func randomSortedEdges(rng *rand.Rand, numVertices, n int) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		u := uint32(rng.Intn(numVertices))
		v := uint32(rng.Intn(numVertices))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Len: uint16(rng.Intn(500) + 1)})
		if rng.Intn(4) == 0 { // duplicate with another length
			edges = append(edges, Edge{U: u, V: v, Len: uint16(rng.Intn(500) + 1)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].Len < edges[j].Len
	})
	return edges
}

func collect(g *Graph) []Edge {
	var out []Edge
	all := graph.NewLiveView(g, nil)
	for e, ok := all.Next(); ok; e, ok = all.Next() {
		out = append(out, e)
	}
	return out
}

// TestFromEdgeRunsMatchesSpmat pins the compressed store's contents
// against the CSR matrix built from the same stream.
func TestFromEdgeRunsMatchesSpmat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nv := rng.Intn(200) + 2
		edges := randomSortedEdges(rng, nv, rng.Intn(600))
		g, err := FromEdgeRuns(nv, sliceIter(edges))
		if err != nil {
			t.Fatal(err)
		}
		sp := make([]spmat.Edge, len(edges))
		for i, e := range edges {
			sp[i] = spmat.Edge{U: e.U, V: e.V, Len: e.Len}
		}
		i := 0
		m, err := spmat.FromEdgeRuns(nv, func() (spmat.Edge, bool, error) {
			if i >= len(sp) {
				return spmat.Edge{}, false, nil
			}
			e := sp[i]
			i++
			return e, true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if g.NNZ() != m.NNZ() {
			t.Fatalf("trial %d: nnz %d vs spmat %d", trial, g.NNZ(), m.NNZ())
		}
		var want []Edge
		m.Edges(func(e spmat.Edge) { want = append(want, Edge{U: e.U, V: e.V, Len: e.Len}) })
		got := collect(g)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d edges vs %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: edge %d: %+v vs %+v", trial, k, got[k], want[k])
			}
		}
		// Degrees via the Elias–Fano rowPtr match.
		for u := 0; u < nv; u++ {
			cols, _, _, _ := m.Row(uint32(u), nil)
			d, err := g.Degree(uint32(u))
			if err != nil {
				t.Fatal(err)
			}
			if int(d) != len(cols) {
				t.Fatalf("trial %d: degree(%d) = %d, want %d", trial, u, d, len(cols))
			}
		}
	}
}

func TestFromEdgeRunsErrors(t *testing.T) {
	cases := []struct {
		name  string
		nv    int
		edges []Edge
		want  string
	}{
		{"negative_vertices", -1, nil, "negative vertex count"},
		{"out_of_range_u", 4, []Edge{{U: 4, V: 1, Len: 3}}, "out of range"},
		{"out_of_range_v", 4, []Edge{{U: 1, V: 9, Len: 3}}, "out of range"},
		{"self_loop", 4, []Edge{{U: 2, V: 2, Len: 3}}, "self-loop"},
		{"zero_length", 4, []Edge{{U: 1, V: 2, Len: 0}}, "zero overlap length"},
		{"unsorted_u", 4, []Edge{{U: 2, V: 1, Len: 3}, {U: 1, V: 2, Len: 3}}, "not sorted"},
		{"unsorted_v", 4, []Edge{{U: 1, V: 3, Len: 3}, {U: 1, V: 2, Len: 3}}, "not sorted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromEdgeRuns(tc.nv, sliceIter(tc.edges))
			if err == nil {
				t.Fatalf("want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "succinct:") {
				t.Fatalf("error %q not namespaced", err)
			}
		})
	}
}

func TestDuplicatesKeepLongest(t *testing.T) {
	g, err := FromEdgeRuns(4, sliceIter([]Edge{
		{U: 1, V: 2, Len: 10},
		{U: 1, V: 2, Len: 30},
		{U: 1, V: 2, Len: 20},
		{U: 1, V: 3, Len: 5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(g)
	want := []Edge{{U: 1, V: 2, Len: 30}, {U: 1, V: 3, Len: 5}}
	if len(got) != len(want) {
		t.Fatalf("edges = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTransitiveReduceMatchesSpmat builds the same graph in both
// backends and checks the masked pass removes the identical edge set —
// the property that makes the succinct backend's contigs byte-identical
// to spmat's.
func TestTransitiveReduceMatchesSpmat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vertexLen := func(v uint32) int { return 120 + int(v%9) }
	for trial := 0; trial < 15; trial++ {
		numReads := rng.Intn(40) + 4
		nv := 2 * numReads
		sb := spmat.NewBuilder(numReads)
		for i := 0; i < 6*numReads; i++ {
			u := uint32(rng.Intn(nv))
			v := uint32(rng.Intn(nv))
			sb.AddOverlap(u, v, uint16(rng.Intn(100)+10))
		}
		m := sb.Build()
		var stream []Edge
		m.Edges(func(e spmat.Edge) { stream = append(stream, Edge{U: e.U, V: e.V, Len: e.Len}) })
		g, err := FromEdgeRuns(nv, sliceIter(stream))
		if err != nil {
			t.Fatal(err)
		}
		fuzz := rng.Intn(3)
		mr, err := m.TransitiveReduce(context.Background(), spmat.ReduceConfig{
			Device: testDevice(), VertexLen: vertexLen, Fuzz: fuzz})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := g.TransitiveReduce(context.Background(), ReduceConfig{
			Device: testDevice(), VertexLen: vertexLen, Fuzz: fuzz})
		if err != nil {
			t.Fatal(err)
		}
		if gr.Removed != mr.Removed || gr.Flops != mr.Flops {
			t.Fatalf("trial %d: removed/flops %d/%d vs spmat %d/%d",
				trial, gr.Removed, gr.Flops, mr.Removed, mr.Flops)
		}
		var wantLive []Edge
		want := graph.NewLiveView(m, mr.Mask)
		for e, ok := want.Next(); ok; e, ok = want.Next() {
			wantLive = append(wantLive, e)
		}
		var gotLive []Edge
		live := graph.NewLiveView(g, gr.Mask)
		for e, ok := live.Next(); ok; e, ok = live.Next() {
			gotLive = append(gotLive, e)
		}
		if err := live.Err(); err != nil {
			t.Fatal(err)
		}
		if len(gotLive) != len(wantLive) {
			t.Fatalf("trial %d: %d live vs %d", trial, len(gotLive), len(wantLive))
		}
		for k := range wantLive {
			if gotLive[k] != wantLive[k] {
				t.Fatalf("trial %d: live %d: %+v vs %+v", trial, k, gotLive[k], wantLive[k])
			}
		}
		// The view's EachOut must agree with its Next.
		var viewLive []Edge
		lv := graph.NewLiveView(g, gr.Mask)
		for u := uint32(0); u < uint32(nv); u++ {
			lv.EachOut(u, func(to uint32, l uint16) bool {
				viewLive = append(viewLive, Edge{U: u, V: to, Len: l})
				return true
			})
		}
		if len(viewLive) != len(gotLive) {
			t.Fatalf("trial %d: LiveView %d edges vs %d", trial, len(viewLive), len(gotLive))
		}
		for k := range gotLive {
			if viewLive[k] != gotLive[k] {
				t.Fatalf("trial %d: LiveView %d: %+v vs %+v", trial, k, viewLive[k], gotLive[k])
			}
		}
	}
}

// TestBuilderSinglePass pins the streaming construction: the peak bytes
// the builder charges stay below the uncompressed edge list (10 B/entry,
// the raw COO footprint spmat's builder accumulates) and below the CSR
// layout, because the builder never materializes either.
func TestBuilderSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nv := 4000
	edges := randomSortedEdges(rng, nv, 30000)
	var mem stats.MemTracker
	b, err := NewBuilder(nv, &mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := b.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	edgeList := 10 * g.NNZ()
	csr := 8*int64(nv+1) + 6*g.NNZ()
	if b.MaxChargedBytes() >= edgeList {
		t.Fatalf("builder peak %d not below edge-list %d bytes", b.MaxChargedBytes(), edgeList)
	}
	if mem.Peak() >= edgeList {
		t.Fatalf("tracker peak %d not below edge-list %d bytes", mem.Peak(), edgeList)
	}
	if g.Bytes() >= csr {
		t.Fatalf("sealed graph %d bytes not below CSR %d", g.Bytes(), csr)
	}
	if mem.Current() != g.HostBytes() {
		t.Fatalf("tracker current %d != HostBytes %d", mem.Current(), g.HostBytes())
	}
	mem.Release(g.HostBytes())
	if mem.Current() != 0 {
		t.Fatalf("tracker leaks %d bytes after release", mem.Current())
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdgeRuns(0, sliceIter(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.NNZ() != 0 || g.NumVertices() != 0 {
		t.Fatalf("empty graph: nnz=%d n=%d", g.NNZ(), g.NumVertices())
	}
	r, err := g.TransitiveReduce(context.Background(), ReduceConfig{
		Device: testDevice(), VertexLen: func(uint32) int { return 100 }})
	if err != nil {
		t.Fatal(err)
	}
	if r.Removed != 0 {
		t.Fatalf("removed = %d", r.Removed)
	}
}

// denseGraph is a fixture with no empty rows among the low vertices and
// rows wide enough to need multi-byte varints.
func denseGraph(t *testing.T) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	g, err := FromEdgeRuns(600, sliceIter(randomSortedEdges(rng, 600, 9000)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCorruptAdjacencyFailsLoudly hand-corrupts one row of the adjacency
// stream (a dangling varint continuation bit) and requires every consumer
// with an error path to report it: the reducer must not return a partial
// mask, and the live-edge iterator must not end as if the store were
// exhausted.
func TestCorruptAdjacencyFailsLoudly(t *testing.T) {
	g := denseGraph(t)
	cfg := ReduceConfig{Device: testDevice(), VertexLen: func(uint32) int { return 600 }, RowBatch: 64}
	red, err := g.TransitiveReduce(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 300
	_, deg, enc, err := g.rowSpan(victim)
	if err != nil || deg == 0 {
		t.Fatalf("fixture row %d: degree %d, %v", victim, deg, err)
	}
	enc[len(enc)-1] |= 0x80 // aliases g.adj

	if _, _, _, err := g.Row(victim, new(graph.RowScratch)); err == nil || !strings.Contains(err.Error(), "corrupt adjacency stream in row 300") {
		t.Fatalf("Row on the corrupt row: %v", err)
	}
	if red2, err := g.TransitiveReduce(context.Background(), cfg); err == nil {
		t.Fatalf("TransitiveReduce over a corrupt store returned a mask (%d removed) and no error", red2.Removed)
	} else if !strings.Contains(err.Error(), "corrupt adjacency stream") {
		t.Fatalf("TransitiveReduce error does not name the corruption: %v", err)
	}
	if dev := cfg.Device; dev.InUse() != 0 {
		t.Fatalf("failed pass leaked %d device bytes", dev.InUse())
	}

	live := graph.NewLiveView(g, red.Mask)
	var last Edge
	for e, ok := live.Next(); ok; e, ok = live.Next() {
		last = e
	}
	if live.Err() == nil {
		t.Fatal("live view ended without an error on a corrupt store")
	}
	if last.U >= victim {
		t.Fatalf("live view yielded %+v at or past the corrupt row %d", last, victim)
	}
	if _, ok := live.Next(); ok {
		t.Fatal("live view resumed after its error")
	}
	// The unitig walk's access path reports it too, instead of reading the
	// row as empty.
	walk := graph.NewLiveView(g, red.Mask)
	walk.EachOut(victim, func(uint32, uint16) bool { return true })
	if walk.Err() == nil {
		t.Fatal("EachOut over the corrupt row left no error")
	}
}

// TestRowAccessAllocatesNothing pins the decode paths the reducer and
// the unitig walk sit on: a row decode into warmed scratch, and the
// in-place out-edge walks, allocate nothing.
func TestRowAccessAllocatesNothing(t *testing.T) {
	g := denseGraph(t)
	red, err := g.TransitiveReduce(context.Background(), ReduceConfig{
		Device: testDevice(), VertexLen: func(uint32) int { return 600 }})
	if err != nil {
		t.Fatal(err)
	}
	view := graph.NewLiveView(g, red.Mask)
	var scratch graph.RowScratch
	var sum uint64
	visit := func(to uint32, l uint16) bool {
		sum += uint64(to) + uint64(l)
		return true
	}
	sweeps := map[string]func(u uint32){
		"Row": func(u uint32) {
			if _, _, _, err := g.Row(u, &scratch); err != nil {
				t.Fatal(err)
			}
		},
		"Graph.EachOut":    func(u uint32) { g.EachOut(u, visit) },
		"LiveView.EachOut": func(u uint32) { view.EachOut(u, visit) },
	}
	for name, access := range sweeps {
		sweep := func() {
			for u := 0; u < g.NumVertices(); u++ {
				access(uint32(u))
			}
		}
		sweep() // grow the scratch
		if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
			t.Errorf("%s: %v allocs per sweep of %d rows, want 0", name, allocs, g.NumVertices())
		}
	}
	if sum == 0 {
		t.Fatal("walks visited nothing")
	}
}
