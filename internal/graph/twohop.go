package graph

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/gpu"
)

// RowStore is the row-access contract the two-hop reducer runs over: a
// square adjacency structure whose rows come out as ascending column
// indices with their overlap lengths, numbered in one global entry order
// (row by row, columns ascending). spmat.Matrix hands out slices of its
// CSR arrays; succinct.Graph decodes its varint stream into the caller's
// scratch. Everything the reducer charges derives from these methods, so
// two stores holding the same edges differ only in TransferBytes.
type RowStore interface {
	// NumVertices is the dimension; NNZ the stored entry count.
	NumVertices() int
	NNZ() int64
	// Bytes is the store's device footprint, a pure function of its
	// structure.
	Bytes() int64
	// Row returns row u's columns and lengths and the entry-order index
	// of its first entry. The slices are valid until the next Row call
	// with the same scratch, and must not be written.
	Row(u uint32, scratch *RowScratch) (cols []uint32, vals []uint16, base int64, err error)
	// Degree is len(cols) of Row(u) without producing the row.
	Degree(u uint32) (int64, error)
	// TransferBytes prices the out-of-core H2D transfer of one tile: rows
	// [lo, hi) holding nnz entries, plus the flops neighbor entries their
	// products read. rowBatch is the nominal tile height.
	TransferBytes(lo, hi, rowBatch int, nnz, flops int64) (int64, error)
}

// RowScratch is the decode buffer a RowStore may fill instead of
// allocating; stores with addressable rows ignore it.
type RowScratch struct {
	Cols []uint32
	Vals []uint16
}

// blockScratch is what one kernel block needs: its own row and the
// neighbor row of the product term in flight.
type blockScratch struct{ u, w RowScratch }

// blockScratchPool recycles decode buffers across blocks and passes, so a
// steady-state block allocates nothing.
var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// TwoHopConfig parameterizes the masked two-hop transitive reduction.
type TwoHopConfig struct {
	// Device is the simulated card the pass runs on (required).
	Device *gpu.Device
	// VertexLen supplies sequence lengths for overhang arithmetic
	// (required).
	VertexLen func(uint32) int
	// Fuzz is the overhang slack tolerated when matching a two-hop chain
	// against a direct edge, as in sgraph.Graph.TransitiveReduce.
	Fuzz int
	// RowBatch is the number of rows per kernel tile (one BSP superstep,
	// one grid launch). Defaults to 4096.
	RowBatch int
	// MaxResidentBytes caps the device memory claimed for the store and
	// its removal mask. When the store exceeds the cap, each tile
	// re-streams its rows and their product neighbors over PCIe
	// (out-of-core). 0 means the whole store is resident.
	MaxResidentBytes int64
	// Overlap, when set, accounts the H2D prefetch against the compute
	// on a modeled timeline so the pass reports makespan instead of the
	// additive sum. The pass executes the same way, with the same
	// counters, either way.
	Overlap *costmodel.OverlapLedger
}

// TwoHopResult is the outcome of a reduction pass: the removal mask in
// the store's entry order plus the metered totals.
type TwoHopResult struct {
	// Mask[k] reports whether entry k was masked as transitive.
	Mask []bool
	// Removed counts the masked entries.
	Removed int64
	// Flops counts product terms: one per (u->w, w->x) pair. A pure
	// function of the structure.
	Flops int64
	// Tiles is the number of row tiles (kernel launches / supersteps).
	Tiles int
}

// tileTraffic returns the entry count and product-term count of rows
// [lo, hi) — the structural quantities every charge derives from.
func tileTraffic(st RowStore, lo, hi int, sc *RowScratch) (nnz, flops int64, err error) {
	for u := lo; u < hi; u++ {
		cols, _, _, err := st.Row(uint32(u), sc)
		if err != nil {
			return 0, 0, err
		}
		nnz += int64(len(cols))
		for _, w := range cols {
			d, err := st.Degree(w)
			if err != nil {
				return 0, 0, err
			}
			flops += d
		}
	}
	return nnz, flops, nil
}

// reduceRow is one kernel block: it masks every entry (u, x) that some
// chain u->w->x with strictly positive overhangs spells within Fuzz of.
// Both rows ascend, so matching w's columns against u's is a merge-join.
// Writes stay inside row u's span of mask, which the block owns.
func reduceRow(st RowStore, cfg *TwoHopConfig, u uint32, sc *blockScratch, mask []bool) error {
	cols, vals, base, err := st.Row(u, &sc.u)
	if err != nil || len(cols) == 0 {
		return err
	}
	rowMask := mask[base : base+int64(len(cols))]
	lenU := cfg.VertexLen(u)
	for i, w := range cols {
		o1 := lenU - int(vals[i])
		if o1 <= 0 {
			continue
		}
		wCols, wVals, _, err := st.Row(w, &sc.w)
		if err != nil {
			return err
		}
		lenW := cfg.VertexLen(w)
		k := 0
		for j, x := range wCols {
			for k < len(cols) && cols[k] < x {
				k++
			}
			if k == len(cols) {
				break
			}
			o2 := lenW - int(wVals[j])
			if cols[k] != x || o2 <= 0 {
				continue
			}
			total := o1 + o2
			if d := lenU - int(vals[k]); total >= d-cfg.Fuzz && total <= d+cfg.Fuzz {
				rowMask[k] = true
			}
		}
	}
	return nil
}

// TransitiveReduceTwoHop runs the masked A·A pass on the device: for
// every entry (u, x), if some two-hop chain u->w->x with strictly
// positive overhangs spells the same placement (overhang sum within Fuzz
// of the direct edge's), the entry is masked as transitive.
//
// This removes a superset of the edges Myers' sweep (sgraph) removes —
// the sweep skips witness chains whose first hop was itself eliminated,
// the matrix product considers every chain of the original A — while
// preserving reachability: a masked edge is always spelled by two
// surviving-or-masked edges with strictly smaller overhangs, so
// induction on overhang rebuilds every path. The strict-positivity guard
// is what makes that induction well-founded in the presence of
// full-length (zero overhang) overlaps between duplicate reads.
//
// Execution is tiled: RowBatch rows per superstep, routed through
// RunSupersteps so the device sees one aggregate kernel charge. Per tile,
// the modeled timeline (when Overlap is set) records the H2D prefetch of
// the next tile overlapping the current tile's compute, exactly like the
// reduce phase's window streaming. All charges are pure functions of the
// structure and config — the compute charge is in decoded terms, so it is
// the same for every store; only the transfers price the representation —
// and the counters are deterministic and identical with or without a
// ledger.
//
// streams names the pass's device streams (streams+"-io",
// streams+"-compute"). A row the store cannot produce fails the pass with
// the store's error; no partial mask is returned.
func TransitiveReduceTwoHop(ctx context.Context, st RowStore, streams string, cfg TwoHopConfig) (*TwoHopResult, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("graph: TwoHopConfig.Device is required")
	}
	if cfg.VertexLen == nil {
		return nil, fmt.Errorf("graph: TwoHopConfig.VertexLen is required")
	}
	rowBatch := cfg.RowBatch
	if rowBatch <= 0 {
		rowBatch = 4096
	}
	dev := cfg.Device
	n := st.NumVertices()
	res := &TwoHopResult{Mask: make([]bool, st.NNZ())}
	if n == 0 {
		return res, nil
	}

	// Device residency: store + mask if they fit the cap, else a streamed
	// working set. The claim never exceeds MaxResidentBytes, so the pass
	// stays inside the device lease the serve scheduler admitted the job
	// under.
	matBytes := st.Bytes()
	maskBytes := (st.NNZ() + 7) / 8
	claim := matBytes + maskBytes
	if cfg.MaxResidentBytes > 0 && claim > cfg.MaxResidentBytes {
		claim = cfg.MaxResidentBytes
	}
	residentMat := max(claim-maskBytes, 0)
	alloc, err := dev.AllocWait(ctx, claim)
	if err != nil {
		return nil, err
	}
	defer alloc.Free()

	tl := cfg.Overlap.NewTimeline()
	defer tl.Commit()
	// The I/O stream's ops are transfer charges only (stage measures on the
	// caller), so it runs inline: an executor would cost a goroutine and
	// its channels per pass and move nothing.
	ioS := dev.NewStream(streams+"-io", tl.Line("prefetch"), false)
	defer ioS.Close()
	cmp := dev.NewStream(streams+"-compute", tl.Line("compute"), false)
	defer cmp.Close()

	// Upfront upload of the resident portion.
	ioS.CopyToDeviceAsync(residentMat)

	numTiles := (n + rowBatch - 1) / rowBatch
	res.Tiles = numTiles
	bounds := func(t int) (lo, hi int) { return t * rowBatch, min((t+1)*rowBatch, n) }

	// stepErr latches the first failure; later supersteps and blocks see
	// it and do nothing.
	var (
		errMu   sync.Mutex
		stepErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if stepErr == nil {
			stepErr = err
		}
		errMu.Unlock()
	}

	// Each tile's traffic is computed once, a tile ahead of its compute:
	// the prefetch price needs it first, the compute charge reuses it.
	type traffic struct{ nnz, flops int64 }
	var trafficScratch RowScratch
	// stage measures tile t and enqueues its out-of-core transfer: its own
	// rows plus every neighbor row its products read. Nothing moves when
	// the store is fully resident.
	stage := func(t int) traffic {
		lo, hi := bounds(t)
		nnz, flops, err := tileTraffic(st, lo, hi, &trafficScratch)
		var h2d int64
		if err == nil && residentMat < matBytes {
			h2d, err = st.TransferBytes(lo, hi, rowBatch, nnz, flops)
		}
		if err != nil {
			fail(err)
			return traffic{}
		}
		ioS.CopyToDeviceAsync(h2d)
		return traffic{nnz, flops}
	}
	next := stage(0)

	RunSupersteps(dev, numTiles, func(t int) (int64, int64) {
		if stepErr != nil {
			return 0, 0
		}
		if err := ctx.Err(); err != nil {
			fail(err)
			return 0, 0
		}
		// Barrier: this tile's data must be on-device before compute.
		if err := ioS.Sync(); err != nil {
			fail(err)
			return 0, 0
		}
		cmp.WaitModeled(ioS.ModeledCursor())
		cur := next
		// Prefetch the next tile while this one computes.
		if t+1 < numTiles {
			if next = stage(t + 1); stepErr != nil {
				return 0, 0
			}
		}

		lo, hi := bounds(t)
		dev.LaunchBlocks(hi-lo, func(block int) {
			sc := blockScratchPool.Get().(*blockScratch)
			if err := reduceRow(st, &cfg, uint32(lo+block), sc, res.Mask); err != nil {
				fail(err)
			}
			blockScratchPool.Put(sc)
		})
		if stepErr != nil {
			return 0, 0
		}

		res.Flops += cur.flops
		// Each product term reads its neighbor entry and probes the
		// direct row; each tile entry is read once and its mask bit
		// written once.
		memBytes := 6*(cur.nnz+2*cur.flops) + (cur.nnz+7)/8
		ops := cur.nnz + cur.flops
		cmp.Charge(costmodel.TierDeviceMem, memBytes)
		cmp.Charge(costmodel.TierDeviceOps, ops)
		// Mask download rides the io stream, ordered after this tile's
		// compute by an enqueued modeled wait. Keeping every PCIe charge
		// on one line makes the modeled schedule independent of host
		// goroutine interleaving: the lines share no tier, so placement
		// is purely geometric.
		ioS.WaitModeled(cmp.ModeledCursor())
		ioS.CopyFromDeviceAsync((cur.nnz + 7) / 8)
		return memBytes, ops
	})
	if stepErr != nil {
		return nil, stepErr
	}
	if err := ioS.Sync(); err != nil {
		return nil, err
	}
	for _, r := range res.Mask {
		if r {
			res.Removed++
		}
	}
	return res, nil
}

// RunSupersteps drives a bulk-synchronous computation on the device:
// step(s) runs once per superstep, strictly in order — the sequential
// execution is the barrier between supersteps — and returns the device
// traffic its grid generated (bytes moved through device memory, scalar
// operations). The device is charged once with the summed totals,
// matching how the modeled kernels batch their charges, and the totals
// are returned so streamed callers can also place them on a modeled
// timeline. The tiled two-hop reduction runs each row tile as a
// superstep; the contract — ordered supersteps, one aggregate kernel
// charge — is pinned by TestRunSuperstepsContract.
func RunSupersteps(dev *gpu.Device, supersteps int,
	step func(s int) (memBytes, ops int64)) (memBytes, ops int64) {
	for s := 0; s < supersteps; s++ {
		m, o := step(s)
		memBytes += m
		ops += o
	}
	dev.ChargeKernel(memBytes, ops)
	return memBytes, ops
}
