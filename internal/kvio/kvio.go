// Package kvio implements the on-disk key-value lists of the LaSAGNA
// pipeline: fixed-width (fingerprint, read-ID) records streamed
// sequentially to and from partition files.
//
// It realizes the paper's conceptual memory types (Fig. 3): files opened
// through this package are either read-only memory (sequential reads) or
// write-only memory (sequential appends) — never both at once. Every byte
// that crosses the disk boundary is metered, which is what makes the
// pipeline's I/O-dominance analysis (Fig. 8/9) quantitative.
//
// # Block codec
//
// Records are encoded and decoded through pooled block buffers rather
// than per-record writes into a bufio layer: a Writer fills a 160 KiB
// block with fixed-width encodings and issues one Write syscall per
// block; a Reader refills a block with one Read syscall and decodes pairs
// straight out of it. Blocks are recycled through a sync.Pool across
// files, so steady-state serialization allocates nothing.
//
// The disk meter is charged once per flushed block, with the bytes the
// block's Write syscall moved, not once per record: the meter is shared
// with the concurrently running map kernels, and one atomic add per pair
// was millions of contended updates per assembly. Close flushes, so a
// writer's total, and the per-phase deltas of a phase that closes its
// writers, are exactly what per-record charging gave.
//
// Writer.Close flushes the final block, fsyncs, and only then closes,
// reporting — never swallowing — errors from each step, so a torn tail
// write surfaces at close time rather than as a silently short file.
//
// # Two lifetimes
//
// A file is fsynced iff it outlives the function that creates it — it
// can be named by a manifest artifact or read after a crash. NewWriter
// opens such a file. NewScratchWriter opens working storage (an external
// sort's run and merge files, an engine's spill): the same Writer, codec,
// metering and flush/close error reporting, but Close skips the fsync,
// because the creator unlinks the file itself and resume sweeps, never
// reads, whatever a crash leaves of it. A scratch file that turns out to
// be the result (the last run of a sort) is made durable with Sync before
// the rename that publishes it.
//
// # Checksums
//
// Every Writer folds each block it flushes into a running CRC-32C
// (Castagnoli, through hash/crc32, which uses the CPU's CRC instruction
// where there is one): one crc32.Update per block, over bytes already in
// cache. After Close, Writer.Sum is the file's length and CRC-32C, so the
// stage that published the file can record both without reading it back.
// A sum travels with its file: across the rename that publishes a sort's
// last run, and across a shuffle that is only a rename. SumWriter applies
// the same fold to files written through other encoders (the FASTA).
// SumFile reads a file back and sums it: resume uses it to check the files
// it is about to consume against what their writers recorded, and nothing
// else reads a file to sum it.
package kvio

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/kv"
)

// blockPairs is the number of records per codec block; blocks are the
// unit of both the write and the read syscalls.
const blockPairs = 1 << 13

const blockBytes = blockPairs * kv.PairBytes

// blockPool recycles codec blocks across Writers and Readers.
var blockPool sync.Pool

func getBlock() []byte {
	if v := blockPool.Get(); v != nil {
		return *(v.(*[]byte))
	}
	return make([]byte, blockBytes)
}

func putBlock(b []byte) {
	if cap(b) < blockBytes {
		return
	}
	b = b[:blockBytes]
	blockPool.Put(&b)
}

// pairPool recycles host-side pair buffers — an external sort's
// run-formation blocks, merge scratch and merge output, and the windows
// the sort's merges and the reduce stream through — across partitions and
// merge passes, so a long run over many partitions allocates them once
// instead of once per partition. The pool only recycles backing arrays:
// HostMem accounting is unchanged, because the modeled cost of a buffer is
// its reservation, not its allocation.
var pairPool sync.Pool

// GetPairs returns a buffer of length exactly n with undefined contents.
// A pooled buffer with a larger capacity is re-sliced to n — never handed
// back at its previous partition's length, which would let a smaller
// partition read the previous partition's stale tail. A pooled buffer too
// small for the request is dropped for the GC.
func GetPairs(n int) []kv.Pair {
	if v := pairPool.Get(); v != nil {
		buf := *(v.(*[]kv.Pair))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]kv.Pair, n)
}

// PutPairs recycles a buffer obtained from GetPairs. The caller must not
// retain any alias past this call.
func PutPairs(buf []kv.Pair) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	pairPool.Put(&buf)
}

// fileSync is the fsync hook Writer.Close and Sync go through; a variable
// so the tests can observe ordering and inject failures.
var fileSync = (*os.File).Sync

// castagnoli is the CRC-32C polynomial table every Sum folds with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum is a file's length in bytes and its CRC-32C, as the code that wrote
// it folded them.
type Sum struct {
	Bytes  int64
	CRC32C uint32
}

// fold extends s over p, the next bytes of the file.
func (s *Sum) fold(p []byte) {
	s.Bytes += int64(len(p))
	s.CRC32C = crc32.Update(s.CRC32C, castagnoli, p)
}

// SumWriter passes writes through to W and folds the bytes W accepted
// into Sum: the Writer's checksum for a file another encoder writes.
type SumWriter struct {
	W   io.Writer
	Sum Sum
}

func (s *SumWriter) Write(p []byte) (int, error) {
	n, err := s.W.Write(p)
	s.Sum.fold(p[:n])
	return n, err
}

// SumFile reads the file at path and returns its Sum.
func SumFile(path string) (Sum, error) {
	f, err := os.Open(path)
	if err != nil {
		return Sum{}, err
	}
	defer f.Close()
	w := SumWriter{W: io.Discard}
	_, err = io.Copy(&w, f)
	return w.Sum, err
}

// Writer appends pairs to a file sequentially.
type Writer struct {
	f       *os.File
	meter   *costmodel.Meter
	count   int64
	sum     Sum    // of the blocks flushed so far
	block   []byte // pooled codec block
	off     int    // bytes of block filled
	scratch bool   // Close skips the fsync
	closed  bool
}

// NewWriter creates (truncating) the durable file at path: Close fsyncs
// it. meter may be nil.
func NewWriter(path string, meter *costmodel.Meter) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, meter: meter, block: getBlock()}, nil
}

// NewScratchWriter creates (truncating) a file its creator deletes before
// returning and nothing reads after a crash: Close flushes and closes but
// does not fsync. meter may be nil.
func NewScratchWriter(path string, meter *costmodel.Meter) (*Writer, error) {
	w, err := NewWriter(path, meter)
	if err == nil {
		w.scratch = true
	}
	return w, err
}

// Sync fsyncs the closed file at path: the step that turns a file written
// through a scratch writer into one that may be published.
func Sync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fileSync(f); err != nil {
		return fmt.Errorf("kvio: fsync %s: %w", path, err)
	}
	return nil
}

// Write appends one pair.
func (w *Writer) Write(p kv.Pair) error {
	if w.closed {
		return fmt.Errorf("kvio: write to closed writer %s", w.f.Name())
	}
	if w.off == len(w.block) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	p.Encode(w.block[w.off : w.off+kv.PairBytes])
	w.off += kv.PairBytes
	w.count++
	return nil
}

// WriteBatch appends a slice of pairs, encoding block-at-a-time.
func (w *Writer) WriteBatch(ps []kv.Pair) error {
	if w.closed {
		return fmt.Errorf("kvio: write to closed writer %s", w.f.Name())
	}
	for len(ps) > 0 {
		space := (len(w.block) - w.off) / kv.PairBytes
		if space == 0 {
			if err := w.flush(); err != nil {
				return err
			}
			continue
		}
		n := len(ps)
		if n > space {
			n = space
		}
		buf := w.block[w.off:]
		for i := 0; i < n; i++ {
			ps[i].Encode(buf[i*kv.PairBytes : i*kv.PairBytes+kv.PairBytes])
		}
		w.off += n * kv.PairBytes
		w.count += int64(n)
		ps = ps[n:]
	}
	return nil
}

// WriteEncoded appends records already encoded with kv.Pair.Encode; len(b)
// must be a multiple of kv.PairBytes. The bytes pass through the block as
// Write's would, so the file, its Sum and the meter's charges are the
// same as for writing the decoded pairs one by one.
func (w *Writer) WriteEncoded(b []byte) error {
	if w.closed {
		return fmt.Errorf("kvio: write to closed writer %s", w.f.Name())
	}
	if len(b)%kv.PairBytes != 0 {
		return fmt.Errorf("kvio: %d encoded bytes to %s are not whole records of %d bytes",
			len(b), w.f.Name(), kv.PairBytes)
	}
	for len(b) > 0 {
		if w.off == len(w.block) {
			if err := w.flush(); err != nil {
				return err
			}
		}
		n := copy(w.block[w.off:], b) // whole records: the block is too
		w.off += n
		w.count += int64(n / kv.PairBytes)
		b = b[n:]
	}
	return nil
}

// flush writes the filled part of the block with a single syscall, folds
// it into the writer's Sum and charges its bytes to the meter.
func (w *Writer) flush() error {
	if w.off == 0 {
		return nil
	}
	if _, err := w.f.Write(w.block[:w.off]); err != nil {
		return fmt.Errorf("kvio: flush %s: %w", w.f.Name(), err)
	}
	w.sum.fold(w.block[:w.off])
	if w.meter != nil {
		w.meter.AddDiskWrite(int64(w.off))
	}
	w.off = 0
	return nil
}

// Count returns the number of pairs written so far.
func (w *Writer) Count() int64 { return w.count }

// Sum returns the length and CRC-32C of the blocks flushed so far: after
// Close, of the whole file.
func (w *Writer) Sum() Sum { return w.sum }

// Close flushes the final block, fsyncs (a scratch writer does not), and
// closes the file. Each step's error is checked and reported with the
// path: a flush or sync failure means the tail of the file may be torn,
// and silently returning success there is exactly the corruption the
// reader would later misreport as a short file. Close is idempotent; after
// the first call the writer rejects further writes.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	flushErr := w.flush()
	putBlock(w.block)
	w.block = nil
	if flushErr != nil {
		w.f.Close()
		return flushErr
	}
	if !w.scratch {
		if err := fileSync(w.f); err != nil {
			w.f.Close()
			return fmt.Errorf("kvio: fsync %s: %w", w.f.Name(), err)
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("kvio: close %s: %w", w.f.Name(), err)
	}
	return nil
}

// Reader streams pairs from a file sequentially.
type Reader struct {
	f      *os.File
	meter  *costmodel.Meter
	count  int64  // total pairs in the file
	read   int64  // pairs consumed so far
	block  []byte // pooled codec block
	pos    int    // next undecoded byte in block
	lim    int    // bytes of block valid
	eof    bool   // underlying file exhausted
	closed bool
}

// NewReader opens the file at path. meter may be nil.
func NewReader(path string, meter *costmodel.Meter) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size()%kv.PairBytes != 0 {
		f.Close()
		return nil, fmt.Errorf("kvio: %s is corrupt or truncated: size %d is not a multiple of record size %d (%d trailing bytes)",
			path, info.Size(), kv.PairBytes, info.Size()%kv.PairBytes)
	}
	return &Reader{f: f, meter: meter, count: info.Size() / kv.PairBytes, block: getBlock()}, nil
}

// Count returns the total number of pairs in the file.
func (r *Reader) Count() int64 { return r.count }

// Remaining returns how many pairs have not yet been consumed.
func (r *Reader) Remaining() int64 { return r.count - r.read }

// refill slides any partial record tail to the front of the block and
// reads more bytes with (normally) one syscall.
func (r *Reader) refill() error {
	tail := r.lim - r.pos
	if tail > 0 {
		copy(r.block, r.block[r.pos:r.lim])
	}
	r.pos, r.lim = 0, tail
	for r.lim < len(r.block) {
		m, err := r.f.Read(r.block[r.lim:])
		r.lim += m
		if err == io.EOF {
			r.eof = true
			return nil
		}
		if err != nil {
			return err
		}
		if r.lim >= kv.PairBytes {
			return nil
		}
	}
	return nil
}

// ReadBatch fills dst with up to len(dst) pairs and returns how many were
// read. It returns io.EOF (with n == 0) once the stream is exhausted. A
// file that ends mid-record yields every whole pair and then a
// descriptive corruption error, never a silent short count.
func (r *Reader) ReadBatch(dst []kv.Pair) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(dst) {
		if r.lim-r.pos < kv.PairBytes {
			if r.eof {
				break
			}
			if err := r.refill(); err != nil {
				return n, err
			}
			if r.lim-r.pos < kv.PairBytes {
				continue // sets eof or makes progress; loop re-checks
			}
		}
		avail := (r.lim - r.pos) / kv.PairBytes
		take := len(dst) - n
		if take > avail {
			take = avail
		}
		buf := r.block[r.pos:]
		for i := 0; i < take; i++ {
			dst[n+i] = kv.DecodePair(buf[i*kv.PairBytes:])
		}
		n += take
		r.pos += take * kv.PairBytes
	}
	if r.eof && n < len(dst) && r.lim-r.pos > 0 {
		// Partial record at EOF: the file was truncated mid-block after
		// the reader validated its size at open.
		return n, fmt.Errorf("kvio: %s is corrupt or truncated: partial record after %d whole pairs",
			r.f.Name(), r.read+int64(n))
	}
	r.read += int64(n)
	if r.meter != nil {
		r.meter.AddDiskRead(int64(n) * kv.PairBytes)
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Close releases the codec block and closes the file.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	putBlock(r.block)
	r.block = nil
	return r.f.Close()
}

// CountFile returns the number of pairs stored at path (0 if the file does
// not exist). A size that is not a whole number of records is reported as
// corruption rather than silently rounded down.
func CountFile(path string) (int64, error) {
	info, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if info.Size()%kv.PairBytes != 0 {
		return 0, fmt.Errorf("kvio: %s is corrupt or truncated: size %d is not a multiple of record size %d",
			path, info.Size(), kv.PairBytes)
	}
	return info.Size() / kv.PairBytes, nil
}

// Kind distinguishes the two tuple lists of each partition: fingerprints
// of l-length suffixes and of l-length prefixes.
type Kind int

// Partition kinds.
const (
	Suffix Kind = iota
	Prefix
)

func (k Kind) String() string {
	if k == Suffix {
		return "sfx"
	}
	return "pfx"
}

// PartitionPath names the file holding (fingerprint, read-ID) tuples for
// the given overlap length and kind within dir.
func PartitionPath(dir string, k Kind, length int) string {
	return filepath.Join(dir, fmt.Sprintf("%s_%04d.kv", k, length))
}

// PartitionWriters fans incoming tuples out to per-length partition files,
// the partitioning step at the end of the map phase (Section III-A). Files
// are created lazily on the first tuple of each length.
type PartitionWriters struct {
	dir     string
	kind    Kind
	meter   *costmodel.Meter
	writers []*Writer // indexed by length; nil until that length's first tuple
}

// NewPartitionWriters returns a writer fan-out rooted at dir.
func NewPartitionWriters(dir string, kind Kind, meter *costmodel.Meter) *PartitionWriters {
	return &PartitionWriters{dir: dir, kind: kind, meter: meter}
}

// Write appends a tuple to the partition for the given length.
func (pw *PartitionWriters) Write(length int, p kv.Pair) error {
	w, err := pw.writer(length)
	if err != nil {
		return err
	}
	return w.Write(p)
}

// WriteEncoded appends encoded records (Writer.WriteEncoded) to the
// partition for the given length.
func (pw *PartitionWriters) WriteEncoded(length int, b []byte) error {
	w, err := pw.writer(length)
	if err != nil {
		return err
	}
	return w.WriteEncoded(b)
}

// writer returns the partition's writer, creating its file on first use.
func (pw *PartitionWriters) writer(length int) (*Writer, error) {
	if length >= len(pw.writers) {
		pw.writers = append(pw.writers, make([]*Writer, length+1-len(pw.writers))...)
	}
	w := pw.writers[length]
	if w == nil {
		var err error
		w, err = NewWriter(PartitionPath(pw.dir, pw.kind, length), pw.meter)
		if err != nil {
			return nil, err
		}
		pw.writers[length] = w
	}
	return w, nil
}

// Counts returns the tuple count per length written so far.
func (pw *PartitionWriters) Counts() map[int]int64 {
	out := make(map[int]int64)
	for l, w := range pw.writers {
		if w != nil {
			out[l] = w.Count()
		}
	}
	return out
}

// Sums returns each partition file's Sum per length: after Close, of the
// whole files.
func (pw *PartitionWriters) Sums() map[int]Sum {
	out := make(map[int]Sum)
	for l, w := range pw.writers {
		if w != nil {
			out[l] = w.Sum()
		}
	}
	return out
}

// Close closes every partition file, reporting the first error. The
// writers stay, closed, so Counts and Sums still answer for them.
func (pw *PartitionWriters) Close() error {
	var first error
	for _, w := range pw.writers {
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ListPartitions returns the sorted overlap lengths for which partition
// files of the given kind exist in dir.
func ListPartitions(dir string, k Kind) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	prefix := k.String() + "_"
	var lengths []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".kv") {
			continue
		}
		l, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".kv"))
		if err != nil {
			continue
		}
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	return lengths, nil
}
