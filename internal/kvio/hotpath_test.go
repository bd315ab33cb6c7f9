package kvio

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/kv"
)

func randPairs(seed int64, n int) []kv.Pair {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]kv.Pair, n)
	for i := range ps {
		ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, Val: rng.Uint32()}
	}
	return ps
}

// TestBlockBoundaryRoundTrip exercises the block codec at and around its
// block size: files of exactly one block, one record less, and one record
// more must round-trip byte-identically through both Write and WriteBatch,
// and through batch reads that straddle block refills.
func TestBlockBoundaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{1, blockPairs - 1, blockPairs, blockPairs + 1, 2*blockPairs + 3} {
		want := randPairs(int64(n), n)
		for _, mode := range []string{"single", "batch"} {
			path := filepath.Join(dir, fmt.Sprintf("rt_%d_%s.kv", n, mode))
			w, err := NewWriter(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "single" {
				for _, p := range want {
					if err := w.Write(p); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := w.WriteBatch(want); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]kv.Pair, 0, n)
			// An odd batch size forces reads that straddle refills.
			buf := make([]kv.Pair, 777)
			for {
				m, err := r.ReadBatch(buf)
				got = append(got, buf[:m]...)
				if err != nil {
					break
				}
			}
			r.Close()
			if len(got) != n {
				t.Fatalf("n=%d mode=%s: read %d pairs", n, mode, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d mode=%s: pair %d = %v, want %v", n, mode, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWriterCloseSyncsBeforeClose pins the Close ordering of the fsync
// bugfix: the final block must be flushed to the file before the sync
// hook runs, and the sync must happen before the descriptor closes.
func TestWriterCloseSyncsBeforeClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.kv")
	w, err := NewWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(randPairs(1, 3)); err != nil {
		t.Fatal(err)
	}
	orig := fileSync
	defer func() { fileSync = orig }()
	synced := false
	fileSync = func(f *os.File) error {
		synced = true
		// The flush must already have reached the file: fsync of a
		// buffered-but-unflushed tail would persist a torn file.
		info, err := f.Stat()
		if err != nil {
			return err
		}
		if got, want := info.Size(), int64(3*kv.PairBytes); got != want {
			return fmt.Errorf("sync saw %d bytes on disk, want %d (flush must precede fsync)", got, want)
		}
		return orig(f)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !synced {
		t.Fatal("Close did not fsync")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestWriterCloseReportsSyncError pins that a failing fsync is reported
// with the path, not swallowed into a successful close.
func TestWriterCloseReportsSyncError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syncerr.kv")
	w, err := NewWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(kv.Pair{Val: 1}); err != nil {
		t.Fatal(err)
	}
	orig := fileSync
	defer func() { fileSync = orig }()
	injected := errors.New("device lost power")
	fileSync = func(f *os.File) error { return injected }
	err = w.Close()
	if err == nil {
		t.Fatal("Close swallowed the fsync error")
	}
	if !errors.Is(err, injected) {
		t.Fatalf("Close error %v does not wrap the fsync error", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("Close error %q does not name the file", err)
	}
}

// TestWriterCloseReportsFlushError pins that a failing final-block flush
// is reported descriptively, by the durable and the scratch writer alike
// (skipping the fsync skips nothing else). The underlying descriptor is
// closed out from under the writer so the flush write fails.
func TestWriterCloseReportsFlushError(t *testing.T) {
	for name, open := range map[string]func(string, *costmodel.Meter) (*Writer, error){
		"durable": NewWriter, "scratch": NewScratchWriter,
	} {
		path := filepath.Join(t.TempDir(), "flusherr.kv")
		w, err := open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(kv.Pair{Val: 7}); err != nil {
			t.Fatal(err)
		}
		w.f.Close() // sabotage: the buffered pair can no longer be written
		err = w.Close()
		if err == nil {
			t.Fatalf("%s: Close swallowed the flush error", name)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: flush error %q does not name the file", name, err)
		}
	}
}

// TestScratchWriterCloseSkipsSync pins the second lifetime: a scratch
// writer's Close flushes and closes — the file is complete and readable —
// but never reaches the fsync hook, and stays idempotent.
func TestScratchWriterCloseSkipsSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scratch.kv")
	w, err := NewScratchWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := randPairs(2, blockPairs+3)
	if err := w.WriteBatch(want); err != nil {
		t.Fatal(err)
	}
	orig := fileSync
	defer func() { fileSync = orig }()
	fileSync = func(f *os.File) error {
		t.Errorf("scratch Close fsynced %s", f.Name())
		return orig(f)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n, err := CountFile(path); err != nil || n != int64(len(want)) {
		t.Fatalf("scratch file holds %d pairs (err %v), want %d", n, err, len(want))
	}
}

// TestSyncMakesScratchFileDurable pins Sync: it reaches the hook with the
// file at path and reports a failure with the path.
func TestSyncMakesScratchFileDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "promoted.kv")
	w, err := NewScratchWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(randPairs(3, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	orig := fileSync
	defer func() { fileSync = orig }()
	var syncedBytes int64 = -1
	fileSync = func(f *os.File) error {
		info, err := f.Stat()
		if err != nil {
			return err
		}
		syncedBytes = info.Size()
		return orig(f)
	}
	if err := Sync(path); err != nil {
		t.Fatal(err)
	}
	if syncedBytes != 5*kv.PairBytes {
		t.Fatalf("Sync saw %d bytes, want %d", syncedBytes, 5*kv.PairBytes)
	}
	injected := errors.New("device lost power")
	fileSync = func(*os.File) error { return injected }
	if err := Sync(path); !errors.Is(err, injected) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Sync error = %v, want the injected failure naming %s", err, path)
	}
	if err := Sync(path + ".missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Sync of a missing file = %v, want not-exist", err)
	}
}

// TestWriteAfterCloseFails pins that a closed writer rejects writes
// instead of corrupting the pooled block it no longer owns.
func TestWriteAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.kv")
	w, err := NewWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(kv.Pair{}); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	if err := w.WriteBatch(make([]kv.Pair, 2)); err == nil {
		t.Fatal("WriteBatch after Close succeeded")
	}
}

// TestBlockPoolConcurrentRoundTrips is the pooled-buffer contention
// stress pass: many goroutines write and read distinct files through the
// shared block pool. Run under -race this catches any block that is
// recycled while still referenced.
func TestBlockPoolConcurrentRoundTrips(t *testing.T) {
	dir := t.TempDir()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Unequal sizes so pooled blocks cross goroutines mid-fill.
			n := 100 + g*1777
			want := randPairs(int64(100+g), n)
			path := filepath.Join(dir, fmt.Sprintf("w%d.kv", g))
			for iter := 0; iter < 3; iter++ {
				w, err := NewWriter(path, nil)
				if err != nil {
					errs <- err
					return
				}
				if err := w.WriteBatch(want); err != nil {
					errs <- err
					return
				}
				if err := w.Close(); err != nil {
					errs <- err
					return
				}
				r, err := NewReader(path, nil)
				if err != nil {
					errs <- err
					return
				}
				buf := make([]kv.Pair, 313)
				i := 0
				for {
					m, err := r.ReadBatch(buf)
					for j := 0; j < m; j++ {
						if buf[j] != want[i] {
							errs <- fmt.Errorf("worker %d iter %d: pair %d corrupt", g, iter, i)
							r.Close()
							return
						}
						i++
					}
					if err != nil {
						break
					}
				}
				r.Close()
				if i != n {
					errs <- fmt.Errorf("worker %d iter %d: read %d of %d pairs", g, iter, i, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWriterMetersPerFlushedBlock pins when the disk meter moves: once
// per flushed block with that block's bytes, never per record, and the
// tail at Close, so the closed file's total is exact whichever entry
// point wrote it.
func TestWriterMetersPerFlushedBlock(t *testing.T) {
	ps := randPairs(41, blockPairs+3)
	for _, batch := range []bool{false, true} {
		meter := costmodel.NewMeter()
		w, err := NewWriter(filepath.Join(t.TempDir(), "m.kv"), meter)
		if err != nil {
			t.Fatal(err)
		}
		written := func() int64 { return meter.Snapshot().DiskWriteBytes }
		if batch {
			err = w.WriteBatch(ps[:blockPairs])
		} else {
			for _, p := range ps[:blockPairs] {
				if err = w.Write(p); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := written(); got != 0 {
			t.Fatalf("batch=%v: %d bytes metered before any block was flushed", batch, got)
		}
		if batch {
			err = w.WriteBatch(ps[blockPairs:])
		} else {
			for _, p := range ps[blockPairs:] {
				if err = w.Write(p); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := written(); got != blockBytes {
			t.Fatalf("batch=%v: %d bytes metered after the first flush, want one block (%d)", batch, got, blockBytes)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := written(), int64(len(ps))*kv.PairBytes; got != want {
			t.Fatalf("batch=%v: %d bytes metered after Close, want %d", batch, got, want)
		}
	}
}

// TestWriteEncodedMatchesWrite pins that records handed over encoded, in
// chunks that straddle block boundaries, leave the same file, count, Sum
// and meter charges after every chunk as writing the decoded pairs one by
// one, and that a chunk of partial records is refused.
func TestWriteEncodedMatchesWrite(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{1, blockPairs - 1, blockPairs, blockPairs + 1, 2*blockPairs + 3} {
		ps := randPairs(int64(n), n)
		enc := make([]byte, n*kv.PairBytes)
		for i, p := range ps {
			p.Encode(enc[i*kv.PairBytes:])
		}
		open := func(name string) (*Writer, *costmodel.Meter) {
			meter := costmodel.NewMeter()
			w, err := NewWriter(filepath.Join(dir, fmt.Sprintf("%s_%d.kv", name, n)), meter)
			if err != nil {
				t.Fatal(err)
			}
			return w, meter
		}
		one, oneMeter := open("write")
		bulk, bulkMeter := open("encoded")
		chunks := []int{1, 3, blockPairs - 2, 5000, 2 * blockPairs}
		for i, lo := 0, 0; lo < n; i++ {
			hi := min(lo+chunks[i%len(chunks)], n)
			for _, p := range ps[lo:hi] {
				if err := one.Write(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := bulk.WriteEncoded(enc[lo*kv.PairBytes : hi*kv.PairBytes]); err != nil {
				t.Fatal(err)
			}
			if a, b := oneMeter.Snapshot(), bulkMeter.Snapshot(); a != b || one.Count() != bulk.Count() {
				t.Fatalf("n=%d after %d records: encoded writer metered %+v, count %d; Write %+v, count %d",
					n, hi, b, bulk.Count(), a, one.Count())
			}
			lo = hi
		}
		if err := bulk.WriteEncoded(make([]byte, kv.PairBytes+1)); err == nil {
			t.Fatalf("n=%d: a partial record was accepted", n)
		}
		for _, w := range []*Writer{one, bulk} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if one.Sum() != bulk.Sum() || oneMeter.Snapshot() != bulkMeter.Snapshot() {
			t.Fatalf("n=%d: encoded writer closed with sum %+v, Write with %+v", n, bulk.Sum(), one.Sum())
		}
		a, errA := os.ReadFile(filepath.Join(dir, fmt.Sprintf("write_%d.kv", n)))
		b, errB := os.ReadFile(filepath.Join(dir, fmt.Sprintf("encoded_%d.kv", n)))
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Fatalf("n=%d: files differ (%v, %v)", n, errA, errB)
		}
	}
}
