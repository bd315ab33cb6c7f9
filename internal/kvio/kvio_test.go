package kvio

import (
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/kv"
)

func randomPairs(rng *rand.Rand, n int) []kv.Pair {
	ps := make([]kv.Pair, n)
	for i := range ps {
		ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, Val: rng.Uint32()}
	}
	return ps
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pairs.kv")
	rng := rand.New(rand.NewSource(1))
	want := randomPairs(rng, 1000)

	w, err := NewWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range want[:500] {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteBatch(want[500:]); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 1000 {
		t.Fatalf("writer count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 1000 {
		t.Fatalf("reader count = %d", r.Count())
	}
	var got []kv.Pair
	buf := make([]kv.Pair, 77) // deliberately not a divisor of 1000
	for {
		n, err := r.ReadBatch(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("read %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestReaderMetersDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.kv")
	meter := costmodel.NewMeter()
	w, err := NewWriter(path, meter)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(randomPairs(rand.New(rand.NewSource(2)), 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := meter.Snapshot().DiskWriteBytes; got != 10*kv.PairBytes {
		t.Errorf("metered write = %d, want %d", got, 10*kv.PairBytes)
	}
	r, err := NewReader(path, meter)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]kv.Pair, 100)
	if _, err := r.ReadBatch(buf); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if got := meter.Snapshot().DiskReadBytes; got != 10*kv.PairBytes {
		t.Errorf("metered read = %d, want %d", got, 10*kv.PairBytes)
	}
}

func TestReaderRejectsCorruptSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.kv")
	if err := os.WriteFile(path, make([]byte, kv.PairBytes+3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(path, nil); err == nil {
		t.Error("expected error for non-multiple file size")
	}
}

func TestReadBatchEmptyDst(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.kv")
	w, _ := NewWriter(path, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n, err := r.ReadBatch(nil); n != 0 || err != nil {
		t.Errorf("empty dst: n=%d err=%v", n, err)
	}
	if n, err := r.ReadBatch(make([]kv.Pair, 4)); n != 0 || err != io.EOF {
		t.Errorf("empty file: n=%d err=%v", n, err)
	}
}

func TestCountFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.kv")
	if n, err := CountFile(path); n != 0 || err != nil {
		t.Errorf("missing file: n=%d err=%v", n, err)
	}
	w, _ := NewWriter(path, nil)
	if err := w.WriteBatch(randomPairs(rand.New(rand.NewSource(3)), 7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := CountFile(path); n != 7 || err != nil {
		t.Errorf("n=%d err=%v, want 7", n, err)
	}
}

func TestReaderCorruptSizeErrorIsDescriptive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.kv")
	if err := os.WriteFile(path, make([]byte, 2*kv.PairBytes+5), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(path, nil)
	if err == nil {
		t.Fatal("expected error for non-multiple file size")
	}
	msg := err.Error()
	for _, want := range []string{path, "corrupt or truncated", "not a multiple"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestCountFileRejectsCorruptSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.kv")
	if err := os.WriteFile(path, make([]byte, kv.PairBytes-1), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := CountFile(path)
	if err == nil {
		t.Fatal("expected error for non-multiple file size")
	}
	if n != 0 {
		t.Errorf("n = %d on corrupt file, want 0", n)
	}
	if !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Errorf("error %q not descriptive", err)
	}
}

func TestReadBatchTruncatedMidStream(t *testing.T) {
	// A file that shrinks to a partial record after the reader opened it
	// (e.g. a crashed writer's torn tail) must surface a descriptive error,
	// never a silent short read.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.kv")
	w, err := NewWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(randomPairs(rand.New(rand.NewSource(5)), 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := os.Truncate(path, 2*kv.PairBytes+7); err != nil {
		t.Fatal(err)
	}
	var got int
	buf := make([]kv.Pair, 1) // small batches defeat bufio prefetch masking
	for {
		n, err := r.ReadBatch(buf)
		got += n
		if err == io.EOF {
			t.Fatalf("silent short read: EOF after %d pairs of 3", got)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "corrupt or truncated") {
				t.Errorf("error %q not descriptive", err)
			}
			break
		}
	}
	if got != 2 {
		t.Errorf("read %d whole pairs before error, want 2", got)
	}
}

func TestPartitionWritersAndList(t *testing.T) {
	dir := t.TempDir()
	pw := NewPartitionWriters(dir, Suffix, nil)
	rng := rand.New(rand.NewSource(4))
	wantCounts := map[int]int64{63: 5, 80: 3, 100: 1}
	for l, n := range wantCounts {
		for i := int64(0); i < n; i++ {
			if err := pw.Write(l, randomPairs(rng, 1)[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := pw.Counts()
	for l, n := range wantCounts {
		if counts[l] != n {
			t.Errorf("count[%d] = %d, want %d", l, counts[l], n)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	lengths, err := ListPartitions(dir, Suffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(lengths) != 3 || lengths[0] != 63 || lengths[1] != 80 || lengths[2] != 100 {
		t.Errorf("lengths = %v", lengths)
	}
	// Lengths arrive in any order, the longest first here.
	if err := pw.Write(120, randomPairs(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Write(40, randomPairs(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if lengths, _ = ListPartitions(dir, Suffix); len(lengths) != 5 || lengths[0] != 40 || lengths[4] != 120 {
		t.Errorf("lengths after a second fan-out = %v", lengths)
	}
	// No prefix partitions were written.
	pfx, err := ListPartitions(dir, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(pfx) != 0 {
		t.Errorf("prefix partitions = %v", pfx)
	}
	// Files round trip.
	r, err := NewReader(PartitionPath(dir, Suffix, 63), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 5 {
		t.Errorf("partition 63 count = %d", r.Count())
	}
}

func TestPartitionPathNames(t *testing.T) {
	if got := PartitionPath("/x", Suffix, 63); got != "/x/sfx_0063.kv" {
		t.Errorf("suffix path = %q", got)
	}
	if got := PartitionPath("/x", Prefix, 111); got != "/x/pfx_0111.kv" {
		t.Errorf("prefix path = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if Suffix.String() != "sfx" || Prefix.String() != "pfx" {
		t.Error("Kind strings wrong")
	}
}

// TestWriterSumMatchesFile pins the fold: after Close, a Writer's Sum —
// through Write and WriteBatch, across block boundaries, empty or not —
// and a SumWriter's are the length and CRC-32C of the bytes on disk, which
// SumFile reads back, and one flipped bit changes the CRC.
func TestWriterSumMatchesFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	tab := crc32.MakeTable(crc32.Castagnoli)
	for _, n := range []int{0, 1, blockPairs, 2*blockPairs + 17} {
		path := filepath.Join(dir, fmt.Sprintf("n%d.kv", n))
		ps := randomPairs(rng, n)
		w, err := NewScratchWriter(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		half := n / 2
		for _, p := range ps[:half] {
			if err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteBatch(ps[half:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := Sum{Bytes: int64(len(data)), CRC32C: crc32.Checksum(data, tab)}
		if w.Sum() != want || want.Bytes != int64(n)*kv.PairBytes {
			t.Errorf("n=%d: writer summed %+v, file is %+v", n, w.Sum(), want)
		}
		if got, err := SumFile(path); err != nil || got != want {
			t.Errorf("n=%d: SumFile = %+v, %v; want %+v", n, got, err, want)
		}
		sw := SumWriter{W: io.Discard}
		sw.Write(data[:len(data)/3])
		sw.Write(data[len(data)/3:])
		if sw.Sum != want {
			t.Errorf("n=%d: SumWriter summed %+v, want %+v", n, sw.Sum, want)
		}
		if n > 0 {
			data[len(data)-1] ^= 1
			if crc32.Checksum(data, tab) == want.CRC32C {
				t.Errorf("n=%d: a flipped bit kept the CRC", n)
			}
		}
	}
}

// TestGetPairsReslicesPooledBuffer pins the pooled-buffer clamping
// contract directly: a buffer recycled from a larger partition must come
// back re-sliced to exactly the requested length, never at its previous
// stale length (stale-length reuse would let a small partition's sort or
// reduce read the larger partition's leftover tail as if it were data).
// extsort's TestPooledBufferUnequalPartitions is the end-to-end check.
func TestGetPairsReslicesPooledBuffer(t *testing.T) {
	big := GetPairs(1000)
	for i := range big {
		big[i] = kv.Pair{Val: uint32(i) + 1} // poison
	}
	PutPairs(big)
	// Drain gets until the poisoned array comes back (the pool may hold
	// other buffers from earlier tests in the binary).
	for tries := 0; tries < 100; tries++ {
		small := GetPairs(10)
		if len(small) != 10 {
			t.Fatalf("GetPairs(10) returned len %d", len(small))
		}
		if cap(small) >= 1000 && small[:1000][999].Val == 1000 {
			return // got the recycled array, correctly clamped to 10
		}
		if cap(small) < 1000 {
			// A fresh or foreign buffer; the poisoned one is still pooled.
			continue
		}
	}
	// Either way the length contract held for every get; reaching here
	// just means the poisoned buffer was never observed again, which the
	// pool is allowed to do (sync.Pool may drop items).
}
