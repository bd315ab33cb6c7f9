package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/fingerprint"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Mapper runs the map-phase kernels (Section III-A) for ranges of reads:
// reverse complements, Hillis-Steele prefix fingerprints, derived suffix
// fingerprints, and length-partitioned tuple emission. It is shared
// between the single-node pipeline and the distributed implementation,
// where each node maps the input blocks the master assigns to it.
type Mapper struct {
	Dev        *gpu.Device
	HostMem    *stats.MemTracker // may be nil
	MinOverlap int
	BatchReads int
	// Workers is the number of map batches processed concurrently. Each
	// in-flight batch holds its own device allocation, so device-memory
	// capacity bounds effective concurrency. Values <= 1 run the batches
	// serially. Whatever the setting, tuples reach the partition writers
	// in batch order, so the partition files are byte-identical.
	Workers int
	// NaiveKernel switches the fingerprint kernels to the per-read-thread
	// formulation Section III-A rejects; used by the ablation benchmarks.
	NaiveKernel bool
	// Obs is the observability sink; nil disables instrumentation. Track
	// is the owning driver lane in the trace — batch spans land on its
	// worker lanes — and Profile prices the per-batch counter deltas.
	Obs     *obs.Observer
	Track   obs.Track
	Profile costmodel.Profile

	table *fingerprint.Table
}

// NewMapper builds a mapper whose place-value table covers reads up to
// maxLen bases.
func NewMapper(dev *gpu.Device, hostMem *stats.MemTracker, minOverlap, batchReads, maxLen int) *Mapper {
	return &Mapper{
		Dev:        dev,
		HostMem:    hostMem,
		MinOverlap: minOverlap,
		BatchReads: batchReads,
		table:      fingerprint.NewTable(maxLen),
	}
}

// MapRange maps reads [start, end) of rs into the partition writers.
// Batches are fingerprinted by up to Workers concurrent goroutines, but
// their tuples are written strictly in batch order by the calling
// goroutine (runOrdered), so the partition files do not depend on Workers.
// Cancelling ctx aborts between batches with ctx.Err(); the tuple bytes of
// every batch mapped but never written are released from HostMem.
func (m *Mapper) MapRange(ctx context.Context, rs dna.ReadSource, start, end int,
	sfxW, pfxW *kvio.PartitionWriters) error {
	if end <= start {
		return nil
	}
	type batch struct {
		tuples []mapTuple
		bytes  int64
	}
	release := func(b batch) {
		if m.HostMem != nil {
			m.HostMem.Release(b.bytes)
		}
	}
	numBatches := (end - start + m.BatchReads - 1) / m.BatchReads
	return runOrdered(m.Workers, numBatches,
		func(worker, i int) (batch, error) {
			lo, hi := m.batchBounds(start, end, i)
			tuples, bytes, err := m.mapBatchSpan(ctx, rs, worker, i, lo, hi)
			return batch{tuples, bytes}, err
		},
		func(b batch) error {
			defer release(b)
			return m.writeBatch(b.tuples, sfxW, pfxW)
		}, release)
}

// mapBatchSpan wraps mapBatch in a per-batch trace span on the worker's
// lane, carrying the batch's meter delta.
func (m *Mapper) mapBatchSpan(ctx context.Context, rs dna.ReadSource, worker, idx, lo, hi int) ([]mapTuple, int64, error) {
	span := m.Obs.Tracer().Begin(m.Track.Worker(worker), "partition",
		fmt.Sprintf("map batch %d", idx)).
		Metered(m.Dev.Meter(), m.Profile).
		Arg("reads", hi-lo)
	defer span.End()
	return m.mapBatch(ctx, rs, lo, hi)
}

// batchBounds returns the read range of batch idx within [start, end).
func (m *Mapper) batchBounds(start, end, idx int) (int, int) {
	lo := start + idx*m.BatchReads
	hi := lo + m.BatchReads
	if hi > end {
		hi = end
	}
	return lo, hi
}

// mapBatch fingerprints reads [batchStart, batchEnd) on the device and
// returns their partition tuples in read order, plus the host bytes the
// tuple buffers occupy (already added to HostMem; the caller releases
// them once the tuples are written or dropped).
func (m *Mapper) mapBatch(ctx context.Context, rs dna.ReadSource, batchStart, batchEnd int) ([]mapTuple, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	workers := runtime.GOMAXPROCS(0)
	maxLen := rs.MaxLen()
	batchReads := batchEnd - batchStart
	var batchBases int64
	for r := batchStart; r < batchEnd; r++ {
		batchBases += int64(rs.Len(uint32(r)))
	}
	// Device holds the batch (both strands) plus per-block scan buffers.
	scanBytes := int64(workers) * int64(maxLen) * 4 * 16
	alloc, err := m.Dev.AllocWait(ctx, 2*batchBases+scanBytes)
	if err != nil {
		return nil, 0, fmt.Errorf("core: map batch of %d reads does not fit on device: %w",
			batchReads, err)
	}
	m.Dev.CopyToDevice(batchBases)

	chunks := workers
	if chunks > batchReads {
		chunks = batchReads
	}
	per := (batchReads + chunks - 1) / chunks
	results := make([][]mapTuple, chunks)
	m.Dev.LaunchBlocks(chunks, func(ci int) {
		results[ci] = m.runBlock(rs, batchStart+ci*per, min(batchStart+(ci+1)*per, batchEnd))
	})

	var tupleBytes int64
	total := 0
	for _, out := range results {
		tupleBytes += int64(len(out)) * mapTupleBytes
		total += len(out)
	}
	if m.HostMem != nil {
		m.HostMem.Add(tupleBytes)
	}
	m.Dev.CopyFromDevice(tupleBytes)
	alloc.Free()

	tuples := make([]mapTuple, 0, total)
	for _, out := range results {
		tuples = append(tuples, out...)
	}
	return tuples, tupleBytes, nil
}

// writeBatch streams one batch's tuples into the partition writers.
func (m *Mapper) writeBatch(tuples []mapTuple, sfxW, pfxW *kvio.PartitionWriters) error {
	for _, t := range tuples {
		var err error
		if t.kind == kvio.Suffix {
			err = sfxW.Write(int(t.length), t.pair)
		} else {
			err = pfxW.Write(int(t.length), t.pair)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fpKernel is the subset of the fingerprint kernels the mapper needs,
// satisfied by both the Hillis-Steele and the naive formulation. The
// batched entry point computes both fingerprint arrays of a read at once
// so the scan kernel can amortize its metering over the pair.
type fpKernel interface {
	ScanRead(dev *gpu.Device, s dna.Seq, pout, sout []kv.Key) (pf, sf []kv.Key)
}

// runBlock executes one simulated thread block over reads [lo, hi).
func (m *Mapper) runBlock(rs dna.ReadSource, lo, hi int) []mapTuple {
	var kern fpKernel = fingerprint.NewKernel(m.table)
	if m.NaiveKernel {
		kern = fingerprint.NewNaiveKernel(m.table)
	}
	maxLen := rs.MaxLen()
	pfps := make([]kv.Key, maxLen)
	sfps := make([]kv.Key, maxLen)
	rcBuf := make(dna.Seq, maxLen)
	var out []mapTuple
	for r := lo; r < hi; r++ {
		read := rs.Read(uint32(r))
		for strand := uint32(0); strand < 2; strand++ {
			seq := read
			if strand == 1 {
				rc := rcBuf[:len(read)]
				read.ReverseComplementInto(rc)
				seq = rc
			}
			v := dna.ForwardVertex(uint32(r)) | strand
			pf, sf := kern.ScanRead(m.Dev, seq, pfps, sfps)
			// Keep lengths [lmin, len); the full-length partition is
			// dropped to avoid self-loops (Section III-A).
			for l := m.MinOverlap; l < len(seq); l++ {
				out = append(out,
					mapTuple{int32(l), kvio.Suffix, kv.Pair{Key: sf[len(seq)-l], Val: v}},
					mapTuple{int32(l), kvio.Prefix, kv.Pair{Key: pf[l-1], Val: v}})
			}
		}
	}
	return out
}
