// Wall-clock micro-benchmarks for the real hot loops of the pipeline —
// the Rabin-Karp fingerprint scan, kvio pair serialization, the external
// sort's device chunk sort, one tile of the two-hop transitive reducer
// over the succinct store, the overlap reducer's bound kernels over one
// sorted window pair, and the spmat CSR build — plus the BENCH_wall.json
// emission the bench_gate wall-clock rule consumes.
//
// Unlike the modeled-seconds benchmarks (BenchmarkTable2 etc.), these
// measure raw host nanoseconds and allocations per operation: the cost
// model is deliberately identical before and after any hot-path rework,
// so wall time is the only signal that the loops actually got faster.
//
// BenchmarkHotPaths does its own calibration (warmup, then grow the
// iteration count until a loop runs long enough to time stably) instead
// of relying on b.N, because the gate needs steady-state numbers — in
// particular allocs/op after buffer pools are warm — even under
// -benchtime=1x. testing.Benchmark cannot be used from inside a running
// benchmark (it deadlocks on the global benchmark lock), so the
// measurement is explicit:
//
//	BENCH_WALL_OUT=BENCH_wall.json go test -run=NONE -bench='^BenchmarkHotPaths$' -benchtime=1x .
package lasagna

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/fingerprint"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/spmat"
	"repro/internal/succinct"
)

// Workload shapes for the hot loops. The kvio loop rotates its files
// every hotFileBatches operations so file open/close cost amortizes to
// nothing and the steady-state inner loop dominates.
const (
	hotReadLen     = 100     // bases per read in the fingerprint scan
	hotReadCount   = 64      // distinct reads cycled through per scan op
	hotBatchPairs  = 1024    // pairs per kvio read/write batch
	hotFileBatches = 512     // batches written per kvio file rotation
	hotChunkPairs  = 2048    // m_d-sized device chunk for the sort loop
	hotSortReads   = 62400   // reads in the H.Genome ×0.5 input: the sort loop's vertex range
	hotTileRows    = 4096    // rows in the two-hop reducer's tile (its default RowBatch)
	hotWindowPairs = 1 << 19 // pairs per reduce window: M/2 at the default m_h = 2^20
	hotBuildReads  = 512     // reads in the spmat build: two row buckets, ~1.4 MB of garbage per op
)

// wallRow is one hot loop's measurement in BENCH_wall.json. The nsPerOp
// and allocsPerOp fields are gated by scripts/bench_gate (nsPerOp with
// the generous wall-clock threshold, allocsPerOp absolutely); bytesPerOp
// is informational.
type wallRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
}

type wallReport struct {
	Loops []wallRow `json:"loops"`
}

// wallLoop is one benchmarked hot loop: setup returns the operation to
// be timed and a cleanup. The op may keep internal state (open files,
// rotation counters); it must be safe to call any number of times.
type wallLoop struct {
	name  string
	setup func() (op func() error, cleanup func(), err error)
}

// hotPathLoops returns the gated hot loops. TestBenchWallBaseline pins
// the committed baseline against exactly this list, so the gate can
// never silently compare an empty intersection.
func hotPathLoops() []wallLoop {
	return []wallLoop{
		{"fingerprint_scan", setupFingerprintScan},
		{"kvio_roundtrip", setupKVIORoundtrip},
		{"extsort_chunk_sort", setupChunkSort},
		{"twohop_tile", setupTwoHopTile},
		{"overlap_bounds_sorted_window", setupSortedWindowBounds},
		{"spmat_build", setupSpmatBuild},
	}
}

// setupFingerprintScan times one read's prefix+suffix fingerprint scan
// (the map phase's inner kernel pair), cycling through a fixed set of
// random reads so branch history cannot memorize one sequence.
func setupFingerprintScan() (func() error, func(), error) {
	rng := rand.New(rand.NewSource(42))
	reads := make([]dna.Seq, hotReadCount)
	for i := range reads {
		s := make(dna.Seq, hotReadLen)
		for j := range s {
			s[j] = byte(rng.Intn(4))
		}
		reads[i] = s
	}
	dev := gpu.NewDevice(gpu.K40, nil)
	table := fingerprint.NewTable(hotReadLen)
	kern := fingerprint.NewKernel(table)
	pf := make([]kv.Key, hotReadLen)
	sf := make([]kv.Key, hotReadLen)
	i := 0
	op := func() error {
		s := reads[i%hotReadCount]
		i++
		p := kern.Prefixes(dev, s, pf)
		kern.Suffixes(dev, p, sf)
		return nil
	}
	return op, func() {}, nil
}

// setupKVIORoundtrip times one batch of pair serialization in each
// direction: a WriteBatch into an open writer plus a ReadBatch from an
// independent pre-written file. Files rotate every hotFileBatches ops.
func setupKVIORoundtrip() (func() error, func(), error) {
	dir, err := os.MkdirTemp("", "hotpaths-kvio-*")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	rng := rand.New(rand.NewSource(43))
	batch := make([]kv.Pair, hotBatchPairs)
	for i := range batch {
		batch[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, Val: rng.Uint32()}
	}
	readPath := filepath.Join(dir, "read.kv")
	writePath := filepath.Join(dir, "write.kv")
	w, err := kvio.NewWriter(readPath, nil)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	for i := 0; i < hotFileBatches; i++ {
		if err := w.WriteBatch(batch); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	if err := w.Close(); err != nil {
		cleanup()
		return nil, nil, err
	}
	if w, err = kvio.NewWriter(writePath, nil); err != nil {
		cleanup()
		return nil, nil, err
	}
	r, err := kvio.NewReader(readPath, nil)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	dst := make([]kv.Pair, hotBatchPairs)
	ops := 0
	op := func() error {
		if ops > 0 && ops%hotFileBatches == 0 {
			// Rotate: reopen both files so neither grows without bound
			// nor drains to EOF. Amortized over hotFileBatches ops.
			if err := w.Close(); err != nil {
				return err
			}
			if err := r.Close(); err != nil {
				return err
			}
			if w, err = kvio.NewWriter(writePath, nil); err != nil {
				return err
			}
			if r, err = kvio.NewReader(readPath, nil); err != nil {
				return err
			}
		}
		ops++
		if err := w.WriteBatch(batch); err != nil {
			return err
		}
		_, err := r.ReadBatch(dst)
		return err
	}
	fullCleanup := func() {
		w.Close()
		r.Close()
		cleanup()
	}
	return op, fullCleanup, nil
}

// setupChunkSort times the device radix sort of one m_d-sized chunk,
// the innermost kernel of the external sort's run-formation pass. Keys
// are drawn in a partition's ranges — Hi below the fingerprint modulus,
// Val a vertex of a hotSortReads-read input — so the chunk has the 19
// non-uniform digit columns real partitions have (Val's top byte is
// uniform). Each op re-copies the chunk from a pristine shuffle so every
// sort does the same work.
func setupChunkSort() (func() error, func(), error) {
	rng := rand.New(rand.NewSource(44))
	pristine := make([]kv.Pair, hotChunkPairs)
	for i := range pristine {
		pristine[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64() % fingerprint.KeySpaceHi, Lo: rng.Uint64()},
			Val: uint32(rng.Intn(2 * hotSortReads))}
	}
	work := make([]kv.Pair, hotChunkPairs)
	dev := gpu.NewDevice(gpu.K40, nil)
	op := func() error {
		copy(work, pristine)
		dev.SortPairs(work)
		return nil
	}
	return op, func() {}, nil
}

// shotgunOverlap is one forward-strand overlap of the synthetic layout
// below.
type shotgunOverlap struct {
	u, v uint32
	l    uint16
}

const shotgunReadLen = 100

// shotgunOverlaps lays numReads reads of shotgunReadLen bases every ~2
// bases along a line and returns every forward-strand overlap of at least
// 63 bases: ~19 per read, about what the H.Genome workloads see.
func shotgunOverlaps(numReads int) []shotgunOverlap {
	const minOverlap = 63
	rng := rand.New(rand.NewSource(45))
	offsets := make([]int, numReads)
	for i := 1; i < numReads; i++ {
		offsets[i] = offsets[i-1] + 1 + rng.Intn(3)
	}
	var ovs []shotgunOverlap
	for i := range offsets {
		for j := i + 1; j < numReads && offsets[j]-offsets[i] <= shotgunReadLen-minOverlap; j++ {
			ovs = append(ovs, shotgunOverlap{uint32(2 * i), uint32(2 * j), uint16(shotgunReadLen - (offsets[j] - offsets[i]))})
		}
	}
	return ovs
}

// setupTwoHopTile times the shared two-hop reducer over one full tile of
// a succinct store: hotTileRows vertices of a shotgun-like overlap graph
// (reads every ~1.6 bases, overlaps of 63..99 of 100 bases, so ~23
// out-edges per vertex as in the H.Genome workloads). Each op is a whole
// single-tile pass — row decodes, merge-joins, and the pass's fixed
// set-up — so its allocs/op is that set-up's constant; a decode that
// allocates per row again shows as thousands.
func setupTwoHopTile() (func() error, func(), error) {
	b := spmat.NewBuilder(hotTileRows / 2)
	for _, o := range shotgunOverlaps(hotTileRows / 2) {
		b.AddOverlap(o.u, o.v, o.l)
	}
	var edges []succinct.Edge
	b.Build().Edges(func(e spmat.Edge) {
		edges = append(edges, succinct.Edge{U: e.U, V: e.V, Len: e.Len})
	})
	g, err := succinct.FromEdgeRuns(hotTileRows, func() (succinct.Edge, bool, error) {
		if len(edges) == 0 {
			return succinct.Edge{}, false, nil
		}
		e := edges[0]
		edges = edges[1:]
		return e, true, nil
	})
	if err != nil {
		return nil, nil, err
	}
	// A device sizes its worker pool from GOMAXPROCS when it is created:
	// pinning that to one makes the launch run its blocks inline, so ns/op
	// is the kernel's serial work, comparable across core counts like the
	// other loops.
	procs := runtime.GOMAXPROCS(1)
	dev := gpu.NewDevice(gpu.K40, nil)
	runtime.GOMAXPROCS(procs)
	cfg := succinct.ReduceConfig{
		Device:    dev,
		VertexLen: func(uint32) int { return shotgunReadLen },
		RowBatch:  hotTileRows,
	}
	op := func() error {
		_, err := g.TransitiveReduce(context.Background(), cfg)
		return err
	}
	return op, func() {}, nil
}

// setupSortedWindowBounds times the overlap reducer's device pass over one
// round's clipped windows: lower and upper bounds of every suffix pair of a
// full fingerprint-sorted window among the pairs of the prefix window. A
// quarter of the suffix keys occur in the prefix window, some more than
// once. The output slices are reused across rounds, as overlap.Reduce does.
func setupSortedWindowBounds() (func() error, func(), error) {
	rng := rand.New(rand.NewSource(46))
	dev := gpu.NewDevice(gpu.K40, nil)
	randomKey := func() kv.Key { return kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()} }
	prefixes := make([]kv.Pair, hotWindowPairs)
	for i := range prefixes {
		prefixes[i] = kv.Pair{Key: randomKey(), Val: uint32(i)}
	}
	suffixes := make([]kv.Pair, hotWindowPairs)
	for i := range suffixes {
		k := randomKey()
		if rng.Intn(4) == 0 {
			k = prefixes[rng.Intn(len(prefixes))].Key
		}
		suffixes[i] = kv.Pair{Key: k, Val: uint32(i)}
	}
	dev.SortPairs(prefixes)
	dev.SortPairs(suffixes)
	var lb, ub []int32
	op := func() error {
		lb = dev.VecLowerBound(suffixes, prefixes, lb)
		ub = dev.VecUpperBound(suffixes, prefixes, ub)
		return nil
	}
	return op, func() {}, nil
}

// setupSpmatBuild times the spmat engine's whole build over hotBuildReads
// reads: every overlap offered from both strands, as the pipeline's reducer
// does (so half the directed edges are duplicates), then Build. Its
// allocs/op is the buckets' growth plus the CSR arrays — a constant of the
// input; a scratch copy of the edge list shows as more. The input is kept
// small because each collection the op's garbage triggers costs the runtime
// an allocation or two of its own, which at 6 MB per op moved the count by
// ±1 from run to run.
func setupSpmatBuild() (func() error, func(), error) {
	ovs := shotgunOverlaps(hotBuildReads)
	var nnz int64
	op := func() error {
		b := spmat.NewBuilder(hotBuildReads)
		for _, o := range ovs {
			b.AddOverlap(o.u, o.v, o.l)
			b.AddOverlap(o.v^1, o.u^1, o.l)
		}
		nnz = b.Build().NNZ()
		if nnz != int64(2*len(ovs)) {
			return fmt.Errorf("spmat build kept %d entries of %d overlaps", nnz, len(ovs))
		}
		return nil
	}
	return op, func() {}, nil
}

// Measurement knobs: each loop warms up (filling buffer pools and
// caches), then the iteration count grows until one timed run lasts at
// least measureTarget, so the ns/op resolution is far below the gate's
// threshold and pool warmup allocations amortize to zero.
const (
	wallWarmupOps = 8
	measureTarget = 200 * time.Millisecond
	measureMaxOps = 1 << 20
)

// measureLoop runs one hot loop to a steady-state measurement. minOps
// lets the smoke test bound the work; pass 0 for the full calibration.
func measureLoop(l wallLoop, minOps int) (wallRow, error) {
	op, cleanup, err := l.setup()
	if err != nil {
		return wallRow{}, fmt.Errorf("%s: setup: %w", l.name, err)
	}
	defer cleanup()
	for i := 0; i < wallWarmupOps; i++ {
		if err := op(); err != nil {
			return wallRow{}, fmt.Errorf("%s: warmup: %w", l.name, err)
		}
	}
	n := 64
	if minOps > 0 {
		n = minOps
	}
	var ms0, ms1 runtime.MemStats
	for {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return wallRow{}, fmt.Errorf("%s: op: %w", l.name, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if minOps > 0 || elapsed >= measureTarget || n >= measureMaxOps {
			return wallRow{
				Name:        l.name,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
				BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
			}, nil
		}
		// Grow toward the target in a few steps.
		grow := int(float64(n) * float64(measureTarget) / float64(elapsed+1) * 1.2)
		if grow < 2*n {
			grow = 2 * n
		}
		if grow > measureMaxOps {
			grow = measureMaxOps
		}
		n = grow
	}
}

// writeWallReport writes the measured loops as BENCH_wall.json.
func writeWallReport(path string, rows []wallRow) error {
	data, err := json.MarshalIndent(wallReport{Loops: rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BenchmarkHotPaths measures every hot loop at steady state and reports
// ns/op and allocs/op per loop. When BENCH_WALL_OUT names a file, the
// table is written there for the bench_gate wall-clock rule. The
// measurement is self-calibrating and independent of b.N (see the
// package comment), so -benchtime=1x gives full-quality numbers.
func BenchmarkHotPaths(b *testing.B) {
	var rows []wallRow
	for _, l := range hotPathLoops() {
		row, err := measureLoop(l, 0)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row)
		b.ReportMetric(row.NsPerOp, l.name+"-ns/op")
		b.Logf("%s: %.0f ns/op, %.2f allocs/op, %.0f B/op",
			l.name, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	}
	// Keep the conventional loop so `go test -bench` accounting stays
	// sane; the real measurement happened above.
	for i := 0; i < b.N; i++ {
	}
	out := os.Getenv("BENCH_WALL_OUT")
	if out == "" {
		return
	}
	if err := writeWallReport(out, rows); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("wrote %s (%d loops)\n", out, len(rows))
}
