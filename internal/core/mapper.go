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
// fingerprints, and length-partitioned record emission. It is shared
// between the single-node pipeline and the distributed implementation,
// where each node maps the input blocks the master assigns to it.
//
// A read of length L contributes one record per strand to each partition
// l in [MinOverlap, L), on both sides, so a batch's partition sizes follow
// from its read lengths alone. Each batch is therefore laid out before any
// kernel runs: one encoded slab per side, partitions in length order, and
// within a partition the kernel blocks' records in (read, strand) order.
// Every block writes its records straight into their slots, and the
// writers copy each partition's byte range as it stands. The host holds
// the slabs of at most 2 × Workers batches at once, kv.PairBytes per
// record (HostMem tracks them), so Map(h) scales with BatchReads.
type Mapper struct {
	Dev        *gpu.Device
	HostMem    *stats.MemTracker // may be nil
	MinOverlap int
	BatchReads int
	// Workers is the number of map batches processed concurrently. Each
	// in-flight batch holds its own device allocation, so device-memory
	// capacity bounds effective concurrency. Values <= 1 run the batches
	// serially. Whatever the setting, records reach the partition writers
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

// deviceRecordBytes is one record as the map kernel emits it on the
// device (length, side, fingerprint, vertex): what the device-to-host copy
// of a batch is charged per record.
const deviceRecordBytes = 32

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
// their records are written strictly in batch order by the calling
// goroutine (runOrdered), so the partition files do not depend on Workers.
// Cancelling ctx aborts between batches with ctx.Err(); the slab of every
// batch mapped but never written is released from HostMem.
func (m *Mapper) MapRange(ctx context.Context, rs dna.ReadSource, start, end int,
	sfxW, pfxW *kvio.PartitionWriters) error {
	if end <= start {
		return nil
	}
	numBatches := (end - start + m.BatchReads - 1) / m.BatchReads
	return runOrdered(m.Workers, numBatches,
		func(worker, i int) (*mapSlab, error) {
			lo, hi := m.batchBounds(start, end, i)
			return m.mapBatchSpan(ctx, rs, worker, i, lo, hi)
		},
		func(s *mapSlab) error {
			defer m.release(s)
			return s.write(sfxW, pfxW)
		}, m.release)
}

// mapSlab is one batch's records, encoded: partition (k, l) is
// recs[k][start[l]:start[l+1]], in (read, strand) order. Both sides share
// the layout.
type mapSlab struct {
	recs  [2][]byte // by kvio.Kind
	start []int     // byte offsets, one per length up to the longest read
}

// write hands each partition's byte range to its writer, shortest first.
func (s *mapSlab) write(sfxW, pfxW *kvio.PartitionWriters) error {
	for l := 0; l+1 < len(s.start); l++ {
		lo, hi := s.start[l], s.start[l+1]
		if lo == hi {
			continue
		}
		if err := sfxW.WriteEncoded(l, s.recs[kvio.Suffix][lo:hi]); err != nil {
			return err
		}
		if err := pfxW.WriteEncoded(l, s.recs[kvio.Prefix][lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// hostBytes is the slab's footprint, as HostMem tracks it.
func (s *mapSlab) hostBytes() int64 { return int64(len(s.recs[0]) + len(s.recs[1])) }

// release takes a slab off HostMem once it is written or dropped.
func (m *Mapper) release(s *mapSlab) {
	if m.HostMem != nil {
		m.HostMem.Release(s.hostBytes())
	}
}

// mapBatchSpan wraps mapBatch in a per-batch trace span on the worker's
// lane, carrying the batch's meter delta.
func (m *Mapper) mapBatchSpan(ctx context.Context, rs dna.ReadSource, worker, idx, lo, hi int) (*mapSlab, error) {
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
// returns their records encoded in place. The slab's bytes are already
// added to HostMem; the caller releases them once the slab is written or
// dropped.
func (m *Mapper) mapBatch(ctx context.Context, rs dna.ReadSource, batchStart, batchEnd int) (*mapSlab, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	maxLen := rs.MaxLen()
	batchReads := batchEnd - batchStart
	chunks := min(workers, batchReads)
	per := (batchReads + chunks - 1) / chunks
	block := func(ci int) (lo, hi int) {
		return batchStart + ci*per, min(batchStart+(ci+1)*per, batchEnd)
	}

	// longer[ci*stride+l] counts block ci's reads longer than l: each puts
	// two records (one per strand) into partition l on each side.
	stride := maxLen + 1
	longer := make([]int, chunks*stride)
	var batchBases int64
	for ci := 0; ci < chunks; ci++ {
		h := longer[ci*stride : (ci+1)*stride]
		lo, hi := block(ci)
		for r := lo; r < hi; r++ {
			n := rs.Len(uint32(r))
			batchBases += int64(n)
			if n > 0 {
				h[n-1]++
			}
		}
		for l := maxLen - 1; l > 0; l-- {
			h[l-1] += h[l]
		}
	}
	// Lay the slab out, partitions by length and blocks in order within
	// each, turning each count into that block's write cursor.
	s := &mapSlab{start: make([]int, stride)}
	off := 0
	for l := m.MinOverlap; l < maxLen; l++ {
		s.start[l] = off
		for ci := 0; ci < chunks; ci++ {
			c := ci*stride + l
			reads := longer[c]
			longer[c] = off
			off += 2 * reads * kv.PairBytes
		}
	}
	s.start[maxLen] = off

	// Device holds the batch (both strands) plus per-block scan buffers.
	scanBytes := int64(workers) * int64(maxLen) * 4 * 16
	alloc, err := m.Dev.AllocWait(ctx, 2*batchBases+scanBytes)
	if err != nil {
		return nil, fmt.Errorf("core: map batch of %d reads does not fit on device: %w",
			batchReads, err)
	}
	m.Dev.CopyToDevice(batchBases)
	s.recs = [2][]byte{make([]byte, off), make([]byte, off)}
	if m.HostMem != nil {
		m.HostMem.Add(s.hostBytes())
	}
	m.Dev.LaunchBlocks(chunks, func(ci int) {
		lo, hi := block(ci)
		m.runBlock(rs, lo, hi, longer[ci*stride:(ci+1)*stride], s.recs)
	})
	m.Dev.CopyFromDevice(s.hostBytes() / kv.PairBytes * deviceRecordBytes)
	alloc.Free()
	return s, nil
}

// fpKernel is the subset of the fingerprint kernels the mapper needs,
// satisfied by both the Hillis-Steele and the naive formulation. The
// batched entry point computes both fingerprint arrays of a read at once
// so the scan kernel can amortize its metering over the pair.
type fpKernel interface {
	ScanRead(dev *gpu.Device, s dna.Seq, pout, sout []kv.Key) (pf, sf []kv.Key)
}

// runBlock executes one simulated thread block over reads [lo, hi),
// encoding each record at its side's slab at cur[l], the block's write
// cursor for partition l.
func (m *Mapper) runBlock(rs dna.ReadSource, lo, hi int, cur []int, recs [2][]byte) {
	var kern fpKernel = fingerprint.NewKernel(m.table)
	if m.NaiveKernel {
		kern = fingerprint.NewNaiveKernel(m.table)
	}
	maxLen := rs.MaxLen()
	pfps := make([]kv.Key, maxLen)
	sfps := make([]kv.Key, maxLen)
	rcBuf := make(dna.Seq, maxLen)
	sfx, pfx := recs[kvio.Suffix], recs[kvio.Prefix]
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
				c := cur[l]
				kv.Pair{Key: sf[len(seq)-l], Val: v}.Encode(sfx[c : c+kv.PairBytes])
				kv.Pair{Key: pf[l-1], Val: v}.Encode(pfx[c : c+kv.PairBytes])
				cur[l] = c + kv.PairBytes
			}
		}
	}
}
