package spmat

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sgraph"
)

func lenFn(n int) func(uint32) int { return func(uint32) int { return n } }

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

func collect(m *Matrix) []Edge {
	var out []Edge
	m.Edges(func(e Edge) { out = append(out, e) })
	return out
}

func TestBuilderMirrorsSgraphRules(t *testing.T) {
	b := NewBuilder(3)
	if b.AddOverlap(0, 0, 10) {
		t.Error("self-loop accepted")
	}
	if b.AddOverlap(0, 1, 10) {
		t.Error("hairpin accepted")
	}
	if !b.AddOverlap(0, 2, 50) {
		t.Fatal("overlap rejected")
	}
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 (edge + complement)", m.NNZ())
	}
	// Complement of 0->2 is 3->1.
	cols, vals, _, _ := m.Row(3, nil)
	if len(cols) != 1 || cols[0] != 1 || vals[0] != 50 {
		t.Errorf("complement row = %v/%v", cols, vals)
	}
}

func TestBuilderDuplicateKeepsLongest(t *testing.T) {
	b := NewBuilder(2)
	b.AddOverlap(0, 2, 30)
	b.AddOverlap(0, 2, 40)
	b.AddOverlap(0, 2, 20)
	m := b.Build()
	cols, vals, _, _ := m.Row(0, nil)
	if len(cols) != 1 || vals[0] != 40 {
		t.Errorf("row 0 = %v/%v, want single length-40 entry", cols, vals)
	}
}

// overlap is one candidate as the pipeline offers it to AddOverlap.
type overlap struct {
	u, v uint32
	l    uint16
}

// referenceBuild is the build the bucketed one replaced, kept as the
// oracle: buffer every directed edge, comparison-sort the lot by (U, V,
// longest first), keep the first of each (U, V) run.
func referenceBuild(ovs []overlap) []Edge {
	var edges []Edge
	for _, o := range ovs {
		if e, ec, ok := graph.OverlapEdges(o.u, o.v, o.l); ok {
			edges = append(edges, e, ec)
		}
	}
	slices.SortFunc(edges, func(a, e Edge) int {
		return cmp.Or(cmp.Compare(a.U, e.U), cmp.Compare(a.V, e.V), cmp.Compare(e.Len, a.Len))
	})
	return slices.CompactFunc(edges, func(a, e Edge) bool { return a.U == e.U && a.V == e.V })
}

// TestBuilderOrderIndependent offers random multisets of overlaps — every
// overlap from both strands, as the pipeline does, and again at other
// lengths, so well over half the directed edges are duplicates — in several
// orders. Every order must give the reference's matrix, exactly sized
// arrays, the same builder footprint, and a matrix that survives the
// edges.kv round trip.
func TestBuilderOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Vertex counts below, at and across bucket boundaries, none but the
	// third a multiple of the bucket width.
	for _, numReads := range []int{4, 100, bucketRows, 700, 1337} {
		n := uint32(2 * numReads)
		var ovs []overlap
		for k := 0; k < 3*numReads; k++ {
			u, v := rng.Uint32()%n, rng.Uint32()%n
			for d := 1 + rng.Intn(3); d > 0; d-- {
				l := uint16(1 + rng.Intn(200))
				ovs = append(ovs, overlap{u, v, l}, overlap{v ^ 1, u ^ 1, l})
			}
		}
		want := referenceBuild(ovs)
		if 2*len(want) > 2*len(ovs) {
			t.Fatalf("numReads %d: %d unique of %d directed edges, want at least half duplicates",
				numReads, len(want), 2*len(ovs))
		}
		var builderBytes int64
		for trial := 0; trial < 5; trial++ {
			rng.Shuffle(len(ovs), func(i, j int) { ovs[i], ovs[j] = ovs[j], ovs[i] })
			b := NewBuilder(numReads)
			for _, o := range ovs {
				b.AddOverlap(o.u, o.v, o.l)
			}
			if trial == 0 {
				builderBytes = b.ApproxBytes()
			} else if got := b.ApproxBytes(); got != builderBytes {
				t.Fatalf("numReads %d trial %d: builder holds %d bytes, first order held %d",
					numReads, trial, got, builderBytes)
			}
			m := b.Build()
			got := collect(m)
			if !slices.Equal(got, want) {
				t.Fatalf("numReads %d trial %d: matrix differs from the sort-and-dedupe reference", numReads, trial)
			}
			if exact := 8*int64(n+1) + 6*m.NNZ(); m.ApproxBytes() != exact {
				t.Fatalf("numReads %d: matrix holds %d bytes, want exactly %d", numReads, m.ApproxBytes(), exact)
			}
			m2, err := FromEdgeRuns(m.NumVertices(), sliceIter(got))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(collect(m2), want) {
				t.Fatalf("numReads %d trial %d: FromEdgeRuns(m.Edges) changed the matrix", numReads, trial)
			}
		}
	}
}

// TestBuilderPackingLimits drives every field of the packed key to its
// limit: the longest length (complemented to zero in the key), the last
// vertex as row and as column, the last row of a bucket and the first of
// the next, in a vertex range that ends part-way through a bucket.
func TestBuilderPackingLimits(t *testing.T) {
	const numReads = bucketRows + 3 // 2*numReads is not a multiple of bucketRows
	top := uint32(2*numReads - 1)
	ovs := []overlap{
		{0, top, 0xFFFF}, {0, top, 1}, // duplicate: the 16-bit maximum must win
		{top, 2, 0xFFFF},
		{bucketRows - 1, bucketRows, 7}, {bucketRows, bucketRows - 1, 0xFFFE},
		{2*bucketRows - 1, 4, 9}, {2 * bucketRows, top - 1, 0x8000},
	}
	b := NewBuilder(numReads)
	for _, o := range ovs {
		if !b.AddOverlap(o.u, o.v, o.l) {
			t.Fatalf("overlap %+v rejected", o)
		}
	}
	got := collect(b.Build())
	if want := referenceBuild(ovs); !slices.Equal(got, want) {
		t.Fatalf("matrix\n got %v\nwant %v", got, want)
	}
	// The fields are as wide as their types: a key survives the extremes
	// of all three.
	e := Edge{U: bucketRows - 1, V: ^uint32(0), Len: 0xFFFF}
	k := packKey(e)
	if back := (Edge{U: uint32(k >> rowShift), V: uint32(k >> lenBits), Len: ^uint16(k)}); back != e {
		t.Fatalf("packKey(%+v) unpacks to %+v", e, back)
	}
}

func TestFromEdgeRunsRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddOverlap(0, 2, 50)
	b.AddOverlap(2, 4, 60)
	b.AddOverlap(4, 6, 30)
	m := b.Build()
	m2, err := FromEdgeRuns(m.NumVertices(), sliceIter(collect(m)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collect(m), collect(m2)) {
		t.Errorf("round trip changed the matrix")
	}
}

func TestFromEdgeRunsDedupesKeepMax(t *testing.T) {
	m, err := FromEdgeRuns(6, sliceIter([]Edge{
		{U: 0, V: 2, Len: 30}, {U: 0, V: 2, Len: 40}, {U: 0, V: 2, Len: 20}, {U: 1, V: 3, Len: 10},
	}))
	if err != nil {
		t.Fatal(err)
	}
	cols, vals, _, _ := m.Row(0, nil)
	if len(cols) != 1 || vals[0] != 40 {
		t.Errorf("row 0 = %v/%v, want single length-40 entry", cols, vals)
	}
	if m.NNZ() != 2 {
		t.Errorf("nnz = %d, want 2", m.NNZ())
	}
}

func TestFromEdgeRunsErrors(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"unsorted rows", 6, []Edge{{U: 2, V: 0, Len: 10}, {U: 0, V: 2, Len: 10}}},
		{"unsorted cols", 6, []Edge{{U: 0, V: 4, Len: 10}, {U: 0, V: 2, Len: 10}}},
		{"u out of range", 4, []Edge{{U: 4, V: 0, Len: 10}}},
		{"v out of range", 4, []Edge{{U: 0, V: 4, Len: 10}}},
		{"zero length", 4, []Edge{{U: 0, V: 2, Len: 0}}},
		{"self loop", 4, []Edge{{U: 2, V: 2, Len: 10}}},
	}
	for _, tc := range cases {
		if _, err := FromEdgeRuns(tc.n, sliceIter(tc.edges)); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	wantErr := errors.New("stream broke")
	i := 0
	_, err := FromEdgeRuns(6, func() (Edge, bool, error) {
		if i++; i > 1 {
			return Edge{}, false, wantErr
		}
		return Edge{U: 0, V: 2, Len: 10}, true, nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("stream error not propagated: %v", err)
	}
}

// reduceAll runs TransitiveReduce with the given config defaults filled.
func reduceAll(t *testing.T, m *Matrix, cfg ReduceConfig) *graph.TwoHopResult {
	t.Helper()
	if cfg.Device == nil {
		cfg.Device = testDevice()
	}
	red, err := m.TransitiveReduce(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return red
}

// liveEdges streams the edges of m that red left unmasked, in CSR order.
func liveEdges(m *Matrix, red *graph.TwoHopResult, fn func(Edge)) {
	view := graph.NewLiveView(m, red.Mask)
	for e, ok := view.Next(); ok; e, ok = view.Next() {
		fn(e)
	}
}

// The sgraph_test.go triangle fixture: a->b (80), b->c (80), a->c (60)
// over length-100 reads; a->c and its complement are transitive.
func TestTransitiveReduceTriangleMatchesSgraph(t *testing.T) {
	b := NewBuilder(3)
	b.AddOverlap(0, 2, 80)
	b.AddOverlap(2, 4, 80)
	b.AddOverlap(0, 4, 60)
	m := b.Build()
	red := reduceAll(t, m, ReduceConfig{VertexLen: lenFn(100)})
	if red.Removed != 2 {
		t.Fatalf("removed = %d, want 2 (a->c and complement)", red.Removed)
	}
	liveEdges(m, red, func(e Edge) {
		if e.U == 0 && e.V == 4 {
			t.Error("transitive edge a->c survived")
		}
	})
}

// The sgraph_test.go inconsistent-edge fixture: overhangs 20+20 vs a
// direct overhang of 50 — kept at fuzz 0, removed at fuzz 10.
func TestTransitiveReduceFuzzMatchesSgraph(t *testing.T) {
	build := func() *Matrix {
		b := NewBuilder(3)
		b.AddOverlap(0, 2, 80)
		b.AddOverlap(2, 4, 80)
		b.AddOverlap(0, 4, 50)
		return b.Build()
	}
	if red := reduceAll(t, build(), ReduceConfig{VertexLen: lenFn(100)}); red.Removed != 0 {
		t.Fatalf("fuzz 0 removed = %d, want 0", red.Removed)
	}
	if red := reduceAll(t, build(), ReduceConfig{VertexLen: lenFn(100), Fuzz: 10}); red.Removed != 2 {
		t.Fatalf("fuzz 10 removed = %d, want 2", red.Removed)
	}
}

// randomOverlapMatrix builds a dense-ish consistent overlap graph plus
// noise, identically into a Builder and an sgraph.Graph.
func randomOverlapMatrix(rng *rand.Rand, numReads, vertexLen int) (*Matrix, *sgraph.Graph) {
	return buildBoth(numReads, randomOverlaps(rng, numReads, vertexLen, 0))
}

// randomOverlaps lays reads out at increasing genomic offsets and returns
// the consistent overlaps between nearby reads, numReads noise edges with
// arbitrary lengths, and then repeats more noise edges whose lengths are
// drawn like true overlaps, so their overhangs can line up with real
// chains the way a repeat's do.
func randomOverlaps(rng *rand.Rand, numReads, vertexLen, repeats int) []overlap {
	var ovs []overlap
	offsets := make([]int, numReads)
	pos := 0
	for i := range offsets {
		pos += 1 + rng.Intn(vertexLen/2)
		offsets[i] = pos
	}
	for i := 0; i < numReads; i++ {
		for j := i + 1; j < numReads; j++ {
			d := offsets[j] - offsets[i]
			if d <= 0 || d >= vertexLen {
				continue
			}
			ovs = append(ovs, overlap{uint32(2 * i), uint32(2 * j), uint16(vertexLen - d)})
		}
	}
	for k := 0; k < numReads; k++ {
		u := uint32(rng.Intn(2 * numReads))
		v := uint32(rng.Intn(2 * numReads))
		ovs = append(ovs, overlap{u, v, uint16(1 + rng.Intn(vertexLen-1))})
	}
	for k := 0; k < repeats; k++ {
		u := uint32(rng.Intn(2 * numReads))
		v := uint32(rng.Intn(2 * numReads))
		ovs = append(ovs, overlap{u, v, uint16(vertexLen - 1 - rng.Intn(vertexLen/2))})
	}
	return ovs
}

// buildBoth offers the same overlaps to a Builder and an sgraph.Graph.
func buildBoth(numReads int, ovs []overlap) (*Matrix, *sgraph.Graph) {
	b := NewBuilder(numReads)
	g := sgraph.New(numReads)
	for _, o := range ovs {
		b.AddOverlap(o.u, o.v, o.l)
		g.AddOverlap(o.u, o.v, o.l)
	}
	return b.Build(), g
}

// TestReduceDeterministicAcrossStreamsAndResidency pins that an overlap
// ledger and in-core/out-of-core execution change neither the removal
// mask nor any cost counter; the ledger only models the overlap.
func TestReduceDeterministicAcrossStreamsAndResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, _ := randomOverlapMatrix(rng, 30, 100)

	type run struct {
		name    string
		ledger  *costmodel.OverlapLedger
		maxRes  int64
		counter costmodel.Counters
		removed int64
		flops   int64
	}
	// The modeled run is also out-of-core: savings come from the next
	// tile's H2D prefetch overlapping the current tile's compute, so a
	// fully resident matrix legitimately has nothing to hide.
	runs := []*run{
		{name: "plain"},
		{name: "streams", maxRes: 256,
			ledger: costmodel.NewOverlapLedger(gpu.K40.CostProfile(
				costmodel.DefaultDisk.ReadBps, costmodel.DefaultDisk.WriteBps))},
		{name: "out-of-core", maxRes: 256},
	}
	for _, r := range runs {
		dev := testDevice()
		red := reduceAll(t, m, ReduceConfig{
			Device: dev, VertexLen: lenFn(100), RowBatch: 7,
			Overlap: r.ledger, MaxResidentBytes: r.maxRes,
		})
		r.counter = dev.Meter().Snapshot()
		r.removed = red.Removed
		r.flops = red.Flops
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if r.removed != base.removed || r.flops != base.flops {
			t.Errorf("%s: removed/flops = %d/%d, want %d/%d",
				r.name, r.removed, r.flops, base.removed, base.flops)
		}
	}
	// A ledger changes no counter at all versus the same residency; the
	// out-of-core runs only add PCIe versus the resident one.
	if runs[1].counter != runs[2].counter {
		t.Errorf("the ledger changed counters: %+v vs %+v", runs[1].counter, runs[2].counter)
	}
	ooc := runs[2].counter
	if ooc.PCIeBytes <= base.counter.PCIeBytes {
		t.Errorf("out-of-core should stream more PCIe: %d vs %d",
			ooc.PCIeBytes, base.counter.PCIeBytes)
	}
	ooc.PCIeBytes = base.counter.PCIeBytes
	if ooc != base.counter {
		t.Errorf("out-of-core changed non-PCIe counters: %+v vs %+v",
			runs[2].counter, base.counter)
	}
	if runs[1].ledger.SavedSeconds() <= 0 {
		t.Errorf("the modeled run saved no modeled time")
	}
}

func TestReduceChargesDevice(t *testing.T) {
	b := NewBuilder(3)
	b.AddOverlap(0, 2, 80)
	b.AddOverlap(2, 4, 80)
	b.AddOverlap(0, 4, 60)
	dev := testDevice()
	red := reduceAll(t, b.Build(), ReduceConfig{Device: dev, VertexLen: lenFn(100)})
	snap := dev.Meter().Snapshot()
	if snap.DeviceOps == 0 || snap.DeviceMemBytes == 0 {
		t.Errorf("SpGEMM charged no device work: %+v", snap)
	}
	if snap.PCIeBytes == 0 {
		t.Errorf("SpGEMM charged no transfers: %+v", snap)
	}
	if red.Flops == 0 {
		t.Error("no flops counted on a graph with products")
	}
	if dev.InUse() != 0 {
		t.Errorf("device memory leaked: %d bytes", dev.InUse())
	}
}

func TestReduceCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := randomOverlapMatrix(rng, 20, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.TransitiveReduce(ctx, ReduceConfig{
		Device: testDevice(), VertexLen: lenFn(100),
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
