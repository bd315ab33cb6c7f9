package graph_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/spmat"
	"repro/internal/succinct"
)

// twoHopOracle is the brute-force reference for the masked two-hop
// reduction: every (entry, first hop, second hop) triple is tried, O(d³)
// per row, over plain adjacency lists.
type twoHopOracle struct {
	mask    []bool
	removed int64
	flops   int64
	tiles   int
	// devMem and devOps are the compute charges summed over tiles.
	devMem, devOps int64
	// maskD2H is the mask bytes downloaded, tile by tile.
	maskD2H int64
}

func runOracle(edges []spmat.Edge, n int, vertexLen func(uint32) int, fuzz, rowBatch int) twoHopOracle {
	rows := make([][]int, n) // entry indices per row, CSR order
	for k, e := range edges {
		rows[e.U] = append(rows[e.U], k)
	}
	o := twoHopOracle{mask: make([]bool, len(edges)), tiles: (n + rowBatch - 1) / rowBatch}
	for _, direct := range edges {
		o.flops += int64(len(rows[direct.V]))
	}
	for k, direct := range edges {
		d := vertexLen(direct.U) - int(direct.Len)
		for _, k1 := range rows[direct.U] {
			first := edges[k1]
			o1 := vertexLen(first.U) - int(first.Len)
			for _, k2 := range rows[first.V] {
				second := edges[k2]
				o2 := vertexLen(second.U) - int(second.Len)
				if second.V == direct.V && o1 > 0 && o2 > 0 && o1+o2 >= d-fuzz && o1+o2 <= d+fuzz {
					o.mask[k] = true
				}
			}
		}
		if o.mask[k] {
			o.removed++
		}
	}
	for lo := 0; lo < n; lo += rowBatch {
		var nnz, flops int64
		for u := lo; u < min(lo+rowBatch, n); u++ {
			nnz += int64(len(rows[u]))
			for _, k := range rows[u] {
				flops += int64(len(rows[edges[k].V]))
			}
		}
		o.devMem += 6*(nnz+2*flops) + (nnz+7)/8
		o.devOps += nnz + flops
		o.maskD2H += (nnz + 7) / 8
	}
	return o
}

// randomSymmetricGraph builds a complement-symmetric overlap graph the
// way the pipeline does (every overlap added with its complement), with
// the shapes the predicate's guards exist for: consistent chains that
// must reduce, full-length overlaps between duplicate reads (overhang
// zero), noise edges, and reads with no overlaps at all (empty rows).
func randomSymmetricGraph(rng *rand.Rand, numReads int, readLen func(read int) int) *spmat.Matrix {
	b := spmat.NewBuilder(numReads)
	offsets := make([]int, numReads)
	for i := 1; i < numReads; i++ {
		offsets[i] = offsets[i-1] + rng.Intn(12)
	}
	for i := 0; i < numReads; i++ {
		if rng.Intn(6) == 0 {
			continue // an isolated read: two empty rows
		}
		for j := i + 1; j < numReads; j++ {
			d := offsets[j] - offsets[i]
			if d >= readLen(i) || rng.Intn(5) == 0 {
				continue
			}
			// d == 0 is a duplicate read: the overlap is the whole read.
			b.AddOverlap(uint32(2*i), uint32(2*j), uint16(min(readLen(i)-d, readLen(j))))
		}
	}
	for k := 0; k < numReads; k++ {
		u, v := uint32(rng.Intn(2*numReads)), uint32(rng.Intn(2*numReads))
		b.AddOverlap(u, v, uint16(1+rng.Intn(readLen(int(u/2)))))
	}
	return b.Build()
}

func succinctOf(t *testing.T, m *spmat.Matrix) (*succinct.Graph, []spmat.Edge) {
	t.Helper()
	var edges []spmat.Edge
	m.Edges(func(e spmat.Edge) { edges = append(edges, e) })
	i := 0
	g, err := succinct.FromEdgeRuns(m.NumVertices(), func() (succinct.Edge, bool, error) {
		if i == len(edges) {
			return succinct.Edge{}, false, nil
		}
		e := edges[i]
		i++
		return succinct.Edge{U: e.U, V: e.V, Len: e.Len}, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, edges
}

// TestTwoHopStoresAgreeWithOracle is the shared reducer's property test:
// over random complement-symmetric graphs, tile heights and residency
// caps, the CSR and succinct stores produce the oracle's mask, Removed,
// Flops and Tiles and the oracle's device charges, differ from each other
// in PCIe bytes only, and move no counter when streams are switched on.
func TestTwoHopStoresAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	profile := gpu.K40.CostProfile(costmodel.DefaultDisk.ReadBps, costmodel.DefaultDisk.WriteBps)
	sawZeroOverhang, sawEmptyRow, sawRemoved := false, false, false
	for trial := 0; trial < 24; trial++ {
		numReads := 3 + rng.Intn(40)
		base := 40 + rng.Intn(40)
		readLen := func(read int) int { return base + read%5 }
		vertexLen := func(v uint32) int { return readLen(int(v / 2)) }
		m := randomSymmetricGraph(rng, numReads, readLen)
		g, edges := succinctOf(t, m)
		for _, e := range edges {
			sawZeroOverhang = sawZeroOverhang || int(e.Len) == vertexLen(e.U)
		}
		for u := 0; u < m.NumVertices(); u++ {
			cols, _, _, _ := m.Row(uint32(u), nil)
			sawEmptyRow = sawEmptyRow || len(cols) == 0
		}
		stores := []struct {
			name   string
			bytes  int64
			reduce func(context.Context, graph.TwoHopConfig) (*graph.TwoHopResult, error)
		}{
			{"csr", m.Bytes(), m.TransitiveReduce},
			{"succinct", g.Bytes(), g.TransitiveReduce},
		}
		fuzz := []int{0, 0, 1 + rng.Intn(6)}[trial%3]
		for _, rowBatch := range []int{1, 7, 4096} {
			want := runOracle(edges, m.NumVertices(), vertexLen, fuzz, rowBatch)
			sawRemoved = sawRemoved || want.removed > 0
			for _, maxResident := range []int64{0, 96} {
				var perStore []costmodel.Counters
				for _, st := range stores {
					var plain costmodel.Counters
					for _, ledger := range []*costmodel.OverlapLedger{nil, costmodel.NewOverlapLedger(profile)} {
						name := fmt.Sprintf("trial %d rowBatch %d cap %d ledger %v %s",
							trial, rowBatch, maxResident, ledger != nil, st.name)
						dev := gpu.NewDevice(gpu.K40, nil)
						got, err := st.reduce(context.Background(), graph.TwoHopConfig{Device: dev, VertexLen: vertexLen, Fuzz: fuzz,
							RowBatch: rowBatch, MaxResidentBytes: maxResident, Overlap: ledger})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if dev.InUse() != 0 {
							t.Fatalf("%s: %d device bytes leaked", name, dev.InUse())
						}
						if got.Removed != want.removed || got.Flops != want.flops || got.Tiles != want.tiles {
							t.Fatalf("%s: removed/flops/tiles = %d/%d/%d, oracle %d/%d/%d", name,
								got.Removed, got.Flops, got.Tiles, want.removed, want.flops, want.tiles)
						}
						for k := range want.mask {
							if got.Mask[k] != want.mask[k] {
								t.Fatalf("%s: mask[%d] (%+v) = %v, oracle %v", name, k, edges[k], got.Mask[k], want.mask[k])
							}
						}
						// Compute charges are in decoded terms: the oracle's,
						// whatever the store.
						c := dev.Meter().Snapshot()
						if c.DeviceMemBytes != want.devMem || c.DeviceOps != want.devOps {
							t.Fatalf("%s: device mem/ops = %d/%d, oracle %d/%d", name,
								c.DeviceMemBytes, c.DeviceOps, want.devMem, want.devOps)
						}
						if wantPCIe := st.bytes + want.maskD2H; maxResident == 0 && c.PCIeBytes != wantPCIe {
							t.Fatalf("%s: resident pass moved %d PCIe bytes, want %d", name, c.PCIeBytes, wantPCIe)
						}
						if ledger == nil {
							plain = c
						} else if c != plain {
							t.Fatalf("%s: streams changed counters: %+v vs %+v", name, c, plain)
						}
					}
					plain.PCIeBytes = 0 // transfers price the representation
					perStore = append(perStore, plain)
				}
				if perStore[0] != perStore[1] {
					t.Fatalf("trial %d rowBatch %d cap %d: stores disagree beyond PCIe: %+v vs %+v",
						trial, rowBatch, maxResident, perStore[0], perStore[1])
				}
			}
		}
	}
	if !sawZeroOverhang || !sawEmptyRow || !sawRemoved {
		t.Fatalf("generator missed a shape: zero overhang %v, empty row %v, removals %v",
			sawZeroOverhang, sawEmptyRow, sawRemoved)
	}
}

func TestTwoHopRequiresDeviceAndLengths(t *testing.T) {
	m := spmat.NewBuilder(2).Build()
	if _, err := m.TransitiveReduce(context.Background(), graph.TwoHopConfig{VertexLen: func(uint32) int { return 1 }}); err == nil {
		t.Error("no Device: want an error")
	}
	if _, err := m.TransitiveReduce(context.Background(), graph.TwoHopConfig{Device: gpu.NewDevice(gpu.K40, nil)}); err == nil {
		t.Error("no VertexLen: want an error")
	}
}

// TestTwoHopBlockAllocatesNothing pins the steady-state kernel block over
// the succinct store — two row decodes per product and a merge-join — at
// zero allocations once the scratch has grown to the widest row.
func TestTwoHopBlockAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, _ := succinctOf(t, randomSymmetricGraph(rng, 80, func(int) int { return 90 }))
	cfg := graph.TwoHopConfig{VertexLen: func(uint32) int { return 90 }}
	mask := make([]bool, g.NNZ())
	var sc graph.BlockScratch
	sweep := func() {
		for u := 0; u < g.NumVertices(); u++ {
			if err := graph.ReduceRow(g, &cfg, uint32(u), &sc, mask); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // grow the scratch
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Errorf("%v allocs per sweep of %d kernel blocks, want 0", allocs, g.NumVertices())
	}
}

// chargeRecorder captures every ChargeKernel the device sees, so tests
// can pin how BSP computations batch their charges.
type chargeRecorder struct {
	mem, ops []int64
}

func (r *chargeRecorder) KernelLaunch(int, time.Time, time.Duration) {}
func (r *chargeRecorder) KernelCharge(memBytes, ops int64) {
	r.mem = append(r.mem, memBytes)
	r.ops = append(r.ops, ops)
}
func (r *chargeRecorder) AllocWaited(int64, time.Time, time.Duration)       {}
func (r *chargeRecorder) StreamOp(string, string, time.Time, time.Duration) {}

// TestRunSuperstepsContract pins the BSP executor's contract: supersteps
// run strictly in order (sequential execution is the barrier), per-step
// charges are summed, and the device is charged exactly once with the
// aggregate.
func TestRunSuperstepsContract(t *testing.T) {
	rec := &chargeRecorder{}
	dev := gpu.NewDevice(gpu.K40, nil)
	dev.SetHooks(rec)
	var order []int
	mem, ops := graph.RunSupersteps(dev, 4, func(s int) (int64, int64) {
		order = append(order, s)
		return int64(10 * (s + 1)), int64(s + 1)
	})
	for i, s := range order {
		if s != i {
			t.Fatalf("superstep order = %v, want ascending", order)
		}
	}
	if mem != 100 || ops != 10 {
		t.Fatalf("totals = (%d, %d), want (100, 10)", mem, ops)
	}
	if len(rec.mem) != 1 || rec.mem[0] != 100 || rec.ops[0] != 10 {
		t.Fatalf("device charges = %v/%v, want one aggregate charge of 100/10",
			rec.mem, rec.ops)
	}
	snap := dev.Meter().Snapshot()
	if snap.DeviceMemBytes != 100 || snap.DeviceOps != 10 {
		t.Fatalf("meter = %+v, want 100 device bytes / 10 ops", snap)
	}
}
