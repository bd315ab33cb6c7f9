// Package extsort implements LaSAGNA's hybrid-memory external sort
// (Section III-B): the most expensive phase of the pipeline (more than 50%
// of total execution time in the paper's evaluation).
//
// The sort runs at two levels, mirroring the two-level streaming model:
//
//   - Disk level: blocks of m_h pairs (the host block-size) are read from
//     the read-only input file, sorted in host memory, and written back as
//     sorted runs; runs are then pairwise merged with Algorithm 1 until a
//     single run remains. Disk passes = 1 + ceil(log2(#runs)), the
//     1 + log(n/m_h) of the paper.
//
//   - Device level: inside a host block, chunks of m_d pairs (the device
//     block-size) are radix-sorted on the device and merged back in host
//     memory by streaming m_d-sized windows through the device
//     (Algorithm 1 again, one level down).
//
// Algorithm 1's window equalization — truncating the pair of windows at
// the upper bound of the smaller of their last keys so that no key in a
// later window can interleave — appears at both levels.
package extsort

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config parameterizes a sort.
type Config struct {
	Device           *gpu.Device
	Meter            *costmodel.Meter  // meters disk traffic; may be nil
	HostMem          *stats.MemTracker // accounts host buffers; may be nil
	HostBlockPairs   int               // m_h: pairs sorted per host block
	DeviceBlockPairs int               // m_d: pairs per device chunk
	TempDir          string            // scratch directory for run files
	Obs              *obs.Observer     // observability sink; may be nil

	// Overlap receives the modeled placement of the sort's charges: each
	// call commits one timeline, on which the prefetching I/O stream and
	// the compute stream overlap. Nil models nothing; the sort executes
	// the same way, with the same output and counters, either way.
	Overlap *costmodel.OverlapLedger
}

// HostBytes is the host memory a sort with host blocks of blockPairs
// pairs holds while it forms runs: two block buffers, so the next block
// reads while the current one sorts, and the merge scratch. The merge
// passes hold less (four half-block windows).
func HostBytes(blockPairs int) int64 {
	return 3 * int64(blockPairs) * kvio.HostPairBytes
}

// Validate checks the configuration against the device capacity: device
// merges need two m_d windows resident (input and output).
func (c Config) Validate() error {
	if c.Device == nil {
		return fmt.Errorf("extsort: nil device")
	}
	if c.HostBlockPairs <= 0 || c.DeviceBlockPairs <= 0 {
		return fmt.Errorf("extsort: block sizes must be positive (m_h=%d m_d=%d)",
			c.HostBlockPairs, c.DeviceBlockPairs)
	}
	if c.DeviceBlockPairs > c.HostBlockPairs {
		return fmt.Errorf("extsort: device block (%d) larger than host block (%d)",
			c.DeviceBlockPairs, c.HostBlockPairs)
	}
	need := int64(2*c.DeviceBlockPairs) * kv.PairBytes
	if need > c.Device.Capacity() {
		return fmt.Errorf("extsort: device block of %d pairs needs %d bytes, device has %d",
			c.DeviceBlockPairs, need, c.Device.Capacity())
	}
	return nil
}

// Stats reports the work a sort performed.
type Stats struct {
	Pairs       int64
	Runs        int // sorted runs produced by the first pass
	MergeRounds int // pairwise merge rounds over the runs
	DiskPasses  int // total passes over the data (1 + MergeRounds)
	// Output is SortFile's output file as its writer summed it (the last
	// run or merge, renamed); SortStream writes no output and leaves it
	// zero.
	Output kvio.Sum
}

// SortFile externally sorts the pairs in inPath into outPath. The sort
// honours ctx: cancellation between blocks and inside the device merge
// loops aborts with ctx.Err() without leaving goroutines parked on the
// device allocator.
func SortFile(ctx context.Context, cfg Config, inPath, outPath string) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	in, err := kvio.NewReader(inPath, cfg.Meter)
	if err != nil {
		return Stats{}, err
	}
	defer in.Close()
	st := Stats{Pairs: in.Count()}

	ioS, cmp, done := cfg.streams()
	defer done()

	runs, release, err := sortRuns(ctx, cfg, ioS, cmp, in)
	defer release()
	if err != nil {
		return st, err
	}
	st.Runs = len(runs)

	if len(runs) == 0 {
		// Empty input: the output is an empty run, published like any other.
		empty := filepath.Join(cfg.TempDir, "run_000000.kv")
		sum, err := writeRun(empty, nil, cfg.Meter)
		if err != nil {
			return st, err
		}
		runs = []run{{empty, sum}}
	}

	// Pass 2..k: pairwise merge runs until one remains (Algorithm 1).
	if runs, err = mergeDownTo(ctx, cfg, ioS, cmp, runs, 1, &st); err != nil {
		return st, err
	}
	st.DiskPasses = 1 + st.MergeRounds
	// Of everything this sort wrote, only the surviving run outlives the
	// call, so it alone is fsynced — before the rename that publishes it.
	// The rename moves no byte, so the run's writer-side sum is the
	// output's.
	if err := kvio.Sync(runs[0].path); err != nil {
		return st, fmt.Errorf("extsort: publishing %s: %w", outPath, err)
	}
	if err := os.Rename(runs[0].path, outPath); err != nil {
		return st, err
	}
	st.Output = runs[0].sum
	cfg.recordStats(st)
	return st, nil
}

// streams opens one sort's two streams on one modeled timeline: the async
// I/O stream that prefetches and the inline compute stream. They are the
// timeline's two long-lived lines, so every sub-phase (run formation,
// merge rounds) serializes naturally on them and only genuine
// cross-stream concurrency shrinks the makespan. done closes the I/O
// stream and commits the timeline.
func (c Config) streams() (ioS, cmp *gpu.Stream, done func()) {
	tl := c.Overlap.NewTimeline()
	ioS = c.Device.NewStream("sort-io", tl.Line("io"), true)
	cmp = c.Device.NewStream("sort-compute", tl.Line("compute"), false)
	return ioS, cmp, func() {
		ioS.Close()
		tl.Commit()
	}
}

// A run is one sorted run file and the sum its writer folded.
type run struct {
	path string
	sum  kvio.Sum
}

// mergeDownTo pairwise merges runs, a round at a time, until at most keep
// remain, counting the rounds in st. Merged inputs are removed as soon as
// their merge is written.
func mergeDownTo(ctx context.Context, cfg Config, ioS, cmp *gpu.Stream, runs []run, keep int, st *Stats) ([]run, error) {
	gen := 0
	for len(runs) > keep {
		st.MergeRounds++
		var next []run
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				next = append(next, runs[i])
				continue
			}
			gen++
			merged := run{path: filepath.Join(cfg.TempDir, fmt.Sprintf("merge_%06d.kv", gen))}
			var err error
			if merged.sum, err = mergeRunFiles(ctx, cfg, ioS, cmp, runs[i].path, runs[i+1].path, merged.path); err != nil {
				return nil, err
			}
			if err := os.Remove(runs[i].path); err != nil {
				return nil, err
			}
			if err := os.Remove(runs[i+1].path); err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs, nil
}

// sortRuns is the shared first pass: form sorted runs of up to m_h
// pairs each. Small partitions get correspondingly small buffers — the
// run structure is identical, but concurrent sorts of many tiny
// partitions must not each pin a full host block. The block is
// double-buffered so the next read overlaps the current sort. Host
// buffers charged to cfg.HostMem are released by the returned func, which
// is non-nil even on error.
func sortRuns(ctx context.Context, cfg Config, ioS, cmp *gpu.Stream, in *kvio.Reader) ([]run, func(), error) {
	blockPairs := kvio.ClampPairs(cfg.HostBlockPairs, in.Count())
	hostBytes := HostBytes(blockPairs)
	memRelease := func() {}
	if cfg.HostMem != nil {
		cfg.HostMem.Add(hostBytes)
		memRelease = func() { cfg.HostMem.Release(hostBytes) }
	}
	blocks := [2][]kv.Pair{kvio.GetPairs(blockPairs), kvio.GetPairs(blockPairs)}
	scratch := kvio.GetPairs(blockPairs)
	release := func() {
		// An early return can leave a block read in flight on the async
		// I/O stream; barrier it before the buffers go back to the pool,
		// or a concurrent sort could be handed a buffer the executor is
		// still filling.
		ioS.Sync()
		kvio.PutPairs(blocks[0])
		kvio.PutPairs(blocks[1])
		kvio.PutPairs(scratch)
		memRelease()
	}

	// pending carries one block read's result across the async boundary;
	// Stream.Sync is the happens-before edge that publishes it.
	type readResult struct {
		n   int
		err error
	}
	var pending readResult
	readInto := func(buf []kv.Pair, afterModeled float64) {
		ioS.WaitModeled(afterModeled)
		ioS.Enqueue("read-block", func() error {
			n, err := readFull(in, buf)
			pending = readResult{n, err}
			ioS.Charge(costmodel.TierDiskRead, int64(n)*kv.PairBytes)
			if err != nil && err != io.EOF {
				return err
			}
			return nil
		})
	}

	var runs []run
	cur := 0
	readInto(blocks[cur], 0)
	for {
		if err := ctx.Err(); err != nil {
			return runs, release, err
		}
		if err := ioS.Sync(); err != nil {
			return runs, release, err
		}
		res := pending
		if res.n == 0 {
			break
		}
		readEnd := ioS.ModeledCursor()
		data := blocks[cur][:res.n]
		more := res.err != io.EOF
		if more {
			// Prefetch the next block into the other buffer while this one
			// sorts. That buffer held the block written two iterations ago,
			// so in the model its read starts no earlier than the compute
			// stream's current position (the moment the buffer was freed).
			cur = 1 - cur
			readInto(blocks[cur], cmp.ModeledCursor())
		}
		cmp.WaitModeled(readEnd)
		sorted, serr := sortHostBlock(ctx, cfg, cmp, data, scratch[:res.n])
		if serr != nil {
			return runs, release, serr
		}
		r := run{path: filepath.Join(cfg.TempDir, fmt.Sprintf("run_%06d.kv", len(runs)))}
		var err error
		if r.sum, err = writeRun(r.path, sorted, cfg.Meter); err != nil {
			return runs, release, err
		}
		cmp.Charge(costmodel.TierDiskWrite, int64(len(sorted))*kv.PairBytes)
		runs = append(runs, r)
		if !more {
			break
		}
	}
	return runs, release, nil
}

// SortStream externally sorts the pairs in inPath and hands the fully
// merged output to emit in sorted batches instead of writing it back to
// disk. Runs are pairwise merged as in SortFile while more than two
// remain; the final merge (or the sole run) then streams straight into
// emit, skipping the last disk write entirely. This is the feed for
// consumers that build a compressed in-memory structure from the sorted
// order — the succinct graph store — without ever materializing the
// sorted edge list as a file or an array. Batches passed to emit are
// only valid for the duration of the call.
func SortStream(ctx context.Context, cfg Config, inPath string, emit func([]kv.Pair) error) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	in, err := kvio.NewReader(inPath, cfg.Meter)
	if err != nil {
		return Stats{}, err
	}
	defer in.Close()
	st := Stats{Pairs: in.Count()}

	ioS, cmp, done := cfg.streams()
	defer done()

	runs, release, err := sortRuns(ctx, cfg, ioS, cmp, in)
	defer release()
	if err != nil {
		return st, err
	}
	st.Runs = len(runs)

	if len(runs) == 0 {
		st.DiskPasses = 1
		cfg.recordStats(st)
		return st, nil
	}

	// Merge pairwise until at most two runs remain.
	if runs, err = mergeDownTo(ctx, cfg, ioS, cmp, runs, 2, &st); err != nil {
		return st, err
	}

	// Final pass streams into the caller: a two-run merge through the
	// device, or a plain sequential drain of the lone run.
	st.MergeRounds++
	if len(runs) == 2 {
		if err := mergeRuns(ctx, cfg, ioS, cmp, runs[0].path, runs[1].path, emit); err != nil {
			return st, err
		}
	} else {
		if err := drainRun(ctx, cfg, ioS, cmp, runs[0].path, emit); err != nil {
			return st, err
		}
	}
	for _, r := range runs {
		if err := os.Remove(r.path); err != nil {
			return st, err
		}
	}
	st.DiskPasses = 1 + st.MergeRounds
	cfg.recordStats(st)
	return st, nil
}

// drainRun streams a single sorted run file through emit in host-block
// batches. Nothing is in flight on the I/O stream after the barrier, so
// the reads run on the caller.
func drainRun(ctx context.Context, cfg Config, ioS, cmp *gpu.Stream, path string, emit func([]kv.Pair) error) error {
	r, err := kvio.NewReader(path, cfg.Meter)
	if err != nil {
		return err
	}
	defer r.Close()
	// The wait is only enqueued on the async stream, while the reads below
	// are charged from this goroutine: without the barrier a charge can
	// land on the modeled line ahead of the wait and the sort hides the
	// read behind compute it depends on.
	ioS.WaitModeled(cmp.ModeledCursor())
	if err := ioS.Sync(); err != nil {
		return err
	}
	capPairs := kvio.ClampPairs(cfg.HostBlockPairs, r.Count())
	if cfg.HostMem != nil {
		hostBytes := int64(capPairs) * kvio.HostPairBytes
		cfg.HostMem.Add(hostBytes)
		defer cfg.HostMem.Release(hostBytes)
	}
	buf := kvio.GetPairs(capPairs)
	defer kvio.PutPairs(buf)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := readFull(r, buf)
		if err != nil && err != io.EOF {
			return err
		}
		if n == 0 {
			return nil
		}
		ioS.Charge(costmodel.TierDiskRead, int64(n)*kv.PairBytes)
		if err := emit(buf[:n]); err != nil {
			return err
		}
	}
}

// recordStats publishes one completed sort's shape to the metrics
// registry; a nil observer no-ops.
func (c Config) recordStats(st Stats) {
	m := c.Obs.Metrics()
	m.Counter("extsort.sorts").Add(1)
	m.Counter("extsort.pairs_sorted").Add(st.Pairs)
	m.Histogram("extsort.disk_passes", 1, 2, 3, 4, 6, 8).Observe(float64(st.DiskPasses))
}

// PredictedDiskPasses returns the number of disk passes the sort will take
// for n pairs with host block m_h — the 1 + ceil(log2(n/m_h)) of the
// paper's analysis.
func PredictedDiskPasses(n int64, hostBlockPairs int) int {
	if n <= int64(hostBlockPairs) {
		return 1
	}
	runs := (n + int64(hostBlockPairs) - 1) / int64(hostBlockPairs)
	return 1 + bits.Len64(uint64(runs-1))
}

func readFull(r *kvio.Reader, dst []kv.Pair) (int, error) {
	total := 0
	for total < len(dst) {
		n, err := r.ReadBatch(dst[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// writeRun writes one sorted run as scratch and returns its sum: runs are
// unlinked by the sort that wrote them (SortFile syncs the one it
// publishes).
func writeRun(path string, ps []kv.Pair, meter *costmodel.Meter) (kvio.Sum, error) {
	w, err := kvio.NewScratchWriter(path, meter)
	if err != nil {
		return kvio.Sum{}, err
	}
	if err := w.WriteBatch(ps); err != nil {
		w.Close()
		return kvio.Sum{}, err
	}
	err = w.Close()
	return w.Sum(), err
}

// sortHostBlock sorts one host block using device chunks of m_d pairs:
// each chunk is radix-sorted on the device, then sorted chunks are
// pairwise merged in host memory by streaming windows through the device.
// The returned slice aliases either block or scratch. Device work is
// charged through cmp, the block's compute stream.
func sortHostBlock(ctx context.Context, cfg Config, cmp *gpu.Stream, block, scratch []kv.Pair) ([]kv.Pair, error) {
	md := cfg.DeviceBlockPairs
	if err := sortChunks(ctx, cfg, cmp, block); err != nil {
		return nil, err
	}
	// Pairwise merge sorted chunks, doubling chunk size each round.
	src, dst := block, scratch
	for width := md; width < len(block); width *= 2 {
		for start := 0; start < len(src); start += 2 * width {
			aEnd := start + width
			if aEnd > len(src) {
				aEnd = len(src)
			}
			bEnd := start + 2*width
			if bEnd > len(src) {
				bEnd = len(src)
			}
			out := dst[start:start]
			emit := func(ps []kv.Pair) error {
				out = append(out, ps...)
				return nil
			}
			if err := mergeInMemory(ctx, cfg, cmp, src[start:aEnd], src[aEnd:bEnd], emit); err != nil {
				return nil, err
			}
		}
		src, dst = dst, src
	}
	return src, nil
}

// sortChunks radix-sorts each m_d-sized device chunk of the block. The
// device holds the chunk plus the radix double-buffer. AllocWait lets
// concurrent partition sorts share the device: capacity, not caller
// count, bounds how many chunks are resident at once.
//
// When the block spans several chunks and two chunk slots fit on the
// device, the chunk loop is modeled as a classic CUDA double-buffered
// pipeline: chunk i+1's H2D transfer overlaps chunk i's kernel, with
// transfers serialized on the PCIe tier and kernels on the device tiers.
// Execution stays sequential on the host (the simulation computes real
// results either way); only the modeled placement — and therefore the
// overlap saving — differs from a chunk-at-a-time loop. The double
// residency is honestly accounted: one allocation of two slots
// (4·m_d·PairBytes, the same bound core.DeviceDemandBytes admits) is held
// for the whole loop.
func sortChunks(ctx context.Context, cfg Config, cmp *gpu.Stream, block []kv.Pair) error {
	dev := cfg.Device
	md := cfg.DeviceBlockPairs
	ln := cmp.Line()
	pipeBytes := 4 * int64(md) * kv.PairBytes
	if len(block) > md && pipeBytes <= dev.Capacity() {
		alloc, err := dev.AllocWait(ctx, pipeBytes)
		if err != nil {
			return err
		}
		defer alloc.Free()
		h2d := ln.Fork("h2d")
		krn := ln.Fork("kernel")
		d2h := ln.Fork("d2h")
		numChunks := (len(block) + md - 1) / md
		chunkAt := func(i int) []kv.Pair {
			return block[i*md : min((i+1)*md, len(block))]
		}
		// d2hEnd[i%2] is when chunk i's slot drains back to the host; the
		// slot is reused by chunk i+2. hEnd[i%2] is when chunk i's upload
		// lands. Chunk i+1's upload is issued before chunk i's kernel so
		// the copy engine sees it as soon as the slot frees — charging it
		// after the drain would serialize the whole PCIe tier in program
		// order and model away the very overlap the pipeline exists for.
		var d2hEnd, hEnd [2]float64
		issueH2D := func(i int) {
			chunk := chunkAt(i)
			bytes := int64(len(chunk)) * kv.PairBytes
			h2d.Wait(d2hEnd[i%2])
			dev.CopyToDevice(bytes)
			_, e := h2d.Charge(costmodel.TierPCIe, bytes)
			hEnd[i%2] = e
		}
		issueH2D(0)
		for i := 0; i < numChunks; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if i+1 < numChunks {
				issueH2D(i + 1)
			}
			chunk := chunkAt(i)
			krn.Wait(hEnd[i%2])
			if len(chunk) > 1 {
				mem, ops := dev.SortPairsCost(chunk)
				krn.Charge(costmodel.TierDeviceMem, mem)
				krn.Charge(costmodel.TierDeviceOps, ops)
			}
			d2h.Wait(krn.Cursor())
			bytes := int64(len(chunk)) * kv.PairBytes
			dev.CopyFromDevice(bytes)
			_, dEnd := d2h.Charge(costmodel.TierPCIe, bytes)
			d2hEnd[i%2] = dEnd
		}
		ln.Wait(d2h.Cursor())
		return nil
	}
	for start := 0; start < len(block); start += md {
		end := min(start+md, len(block))
		chunk := block[start:end]
		alloc, err := dev.AllocWait(ctx, 2*int64(len(chunk))*kv.PairBytes)
		if err != nil {
			return err
		}
		cmp.CopyToDeviceAsync(int64(len(chunk)) * kv.PairBytes)
		cmp.SortPairs(chunk)
		cmp.CopyFromDeviceAsync(int64(len(chunk)) * kv.PairBytes)
		alloc.Free()
	}
	return nil
}

// mergeInMemory merges two sorted in-memory lists by streaming m_d-sized
// windows through the device, following Algorithm 1 with M = m_d. The
// merged output is handed to emit in sorted order.
func mergeInMemory(ctx context.Context, cfg Config, cmp *gpu.Stream, a, b []kv.Pair, emit func([]kv.Pair) error) error {
	dev := cfg.Device
	half := cfg.DeviceBlockPairs / 2
	if half < 1 {
		half = 1
	}
	out := kvio.GetPairs(2 * half)[:0]
	defer kvio.PutPairs(out)
	for len(a) > 0 && len(b) > 0 {
		wa, wb := window(a, half), window(b, half)
		// Entirely ordered windows short-circuit without a device trip
		// (lines 5-6 of Algorithm 1).
		if wa[len(wa)-1].Key.Less(wb[0].Key) {
			if err := emit(wa); err != nil {
				return err
			}
			a = a[len(wa):]
			continue
		}
		if wb[len(wb)-1].Key.Less(wa[0].Key) {
			if err := emit(wb); err != nil {
				return err
			}
			b = b[len(wb):]
			continue
		}
		// Equalize: truncate at the upper bound of the smaller last key
		// (lines 8-15).
		lastA, lastB := wa[len(wa)-1].Key, wb[len(wb)-1].Key
		if lastA.Cmp(lastB) != 0 {
			if k := kv.Min(lastA, lastB); k == lastA {
				wb = wb[:kv.UpperBound(wb, k)]
			} else {
				wa = wa[:kv.UpperBound(wa, k)]
			}
		}
		// GPU_MERGE of the equalized windows (line 16).
		alloc, err := dev.AllocWait(ctx, 2*int64(len(wa)+len(wb))*kv.PairBytes)
		if err != nil {
			return err
		}
		cmp.CopyToDeviceAsync(int64(len(wa)+len(wb)) * kv.PairBytes)
		out = cmp.MergePairsInto(out[:0], wa, wb)
		cmp.CopyFromDeviceAsync(int64(len(out)) * kv.PairBytes)
		alloc.Free()
		if err := emit(out); err != nil {
			return err
		}
		a = a[len(wa):]
		b = b[len(wb):]
	}
	if len(a) > 0 {
		return emit(a)
	}
	if len(b) > 0 {
		return emit(b)
	}
	return nil
}

func window(ps []kv.Pair, n int) []kv.Pair {
	if len(ps) < n {
		return ps
	}
	return ps[:n]
}

// mergeRunFiles merges two sorted run files into one (Algorithm 1 at the
// disk level, M = m_h): mergeRuns streaming into a kvio.Writer, with the
// disk write charged on the compute stream, and returns the output's sum.
// The output is scratch like the runs it replaces; a merge that fails or
// is cancelled removes its partial output rather than leaving it to
// whoever owns TempDir.
func mergeRunFiles(ctx context.Context, cfg Config, ioS, cmp *gpu.Stream, pathA, pathB, outPath string) (kvio.Sum, error) {
	w, err := kvio.NewScratchWriter(outPath, cfg.Meter)
	if err != nil {
		return kvio.Sum{}, err
	}
	emit := func(ps []kv.Pair) error {
		if err := w.WriteBatch(ps); err != nil {
			return err
		}
		cmp.Charge(costmodel.TierDiskWrite, int64(len(ps))*kv.PairBytes)
		return nil
	}
	err = mergeRuns(ctx, cfg, ioS, cmp, pathA, pathB, emit)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(outPath) // best effort: err is the failure to report
	}
	return w.Sum(), err
}

// mergeRuns merges two sorted run files into emit. Windows of m_h/2
// pairs stream from each run into host memory; equalized windows are
// merged through the device via mergeInMemory. Each consumed window's
// replacement is prefetched into the side's spare buffer on the async I/O
// stream while the current windows merge, so disk reads hide behind
// device work in the modeled timeline and in wall time. emit receives the
// merged output in sorted batches that are only valid for the duration of
// the call.
func mergeRuns(ctx context.Context, cfg Config, ioS, cmp *gpu.Stream, pathA, pathB string, emit func([]kv.Pair) error) error {
	ra, err := kvio.NewReader(pathA, cfg.Meter)
	if err != nil {
		return err
	}
	defer ra.Close()
	rb, err := kvio.NewReader(pathB, cfg.Meter)
	if err != nil {
		return err
	}
	defer rb.Close()

	// This merge's reads depend on its input runs, which the compute
	// stream finished writing at its current modeled position.
	ioS.WaitModeled(cmp.ModeledCursor())

	half := max(cfg.HostBlockPairs/2, 1)
	// A run shorter than a half-window never fills past its own length,
	// so its buffers can be run-sized; the windows streamed are identical.
	aCap := kvio.ClampPairs(half, ra.Count())
	bCap := kvio.ClampPairs(half, rb.Count())
	if cfg.HostMem != nil {
		hostBytes := 2 * int64(aCap+bCap) * kvio.HostPairBytes // window + spare per side
		cfg.HostMem.Add(hostBytes)
		defer cfg.HostMem.Release(hostBytes)
	}
	bufs := [4][]kv.Pair{kvio.GetPairs(aCap), kvio.GetPairs(aCap), kvio.GetPairs(bCap), kvio.GetPairs(bCap)}
	wa := kvio.NewWindow(ra, bufs[0], bufs[1])
	wb := kvio.NewWindow(rb, bufs[2], bufs[3])
	defer func() {
		// An early return can leave prefetch ops in flight; barrier the
		// I/O stream before the window buffers go back to the pool.
		ioS.Sync()
		for _, b := range bufs {
			kvio.PutPairs(b)
		}
	}()

	wa.Advance(ioS, 0)
	wb.Advance(ioS, 0)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		syncErr := ioS.Sync()
		wa.Adopt()
		wb.Adopt()
		if syncErr != nil {
			return syncErr
		}
		// Merging a window consumes data the I/O stream produced: the
		// compute stream starts no earlier than the prefetch finished.
		cmp.WaitModeled(ioS.ModeledCursor())
		a, b := wa.Pairs(), wb.Pairs()
		if len(a) == 0 || len(b) == 0 {
			break
		}
		if !a[len(a)-1].Key.Less(b[0].Key) && !b[len(b)-1].Key.Less(a[0].Key) {
			// Windows interleave: equalize at the upper bound of the
			// smaller of the last keys, then merge through the device.
			lastA, lastB := a[len(a)-1].Key, b[len(b)-1].Key
			if lastA.Cmp(lastB) != 0 {
				if k := kv.Min(lastA, lastB); k == lastA {
					b = b[:kv.UpperBound(b, k)]
				} else {
					a = a[:kv.UpperBound(a, k)]
				}
			}
			// Prefetch both replacements before merging: the advance ops
			// read the windows' unconsumed tails and the readers, never
			// the prefixes the merge is consuming.
			wa.Advance(ioS, len(a))
			wb.Advance(ioS, len(b))
			if err := mergeInMemory(ctx, cfg, cmp, a, b, emit); err != nil {
				return err
			}
			continue
		}
		// Disjoint windows: append the smaller one wholesale.
		w, out := wb, b
		if a[len(a)-1].Key.Less(b[0].Key) {
			w, out = wa, a
		}
		w.Advance(ioS, len(out))
		if err := emit(out); err != nil {
			return err
		}
	}
	// One side is exhausted: stream the remainder of the other (line 19).
	// No advances are pending here (the loop top adopted them all), so the
	// plain synchronous fill/consume drain is race-free.
	for _, w := range []*kvio.Window{wa, wb} {
		for {
			if err := w.Fill(); err != nil {
				return err
			}
			rest := w.Pairs()
			if len(rest) == 0 {
				break
			}
			if err := emit(rest); err != nil {
				return err
			}
			w.Consume(len(rest))
		}
	}
	return nil
}
