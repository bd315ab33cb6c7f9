package extsort

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/kv"
)

// allocBytes measures the heap bytes allocated by one call to f. No
// forced GC: collecting would empty the sync.Pools whose effectiveness
// is being measured (TotalAlloc is cumulative, so the delta is exact
// either way).
func allocBytes(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestPooledBufferUnequalPartitions is the end-to-end regression for the
// stale-length hazard: sort consecutive partitions where a large one
// precedes a much smaller one, so every pooled buffer (host block, merge
// scratch, window buffers) is recycled oversized into the small sort.
// Pre-fix (reusing pooled buffers at their previous length) the small
// partition's output would contain the large partition's residue.
func TestPooledBufferUnequalPartitions(t *testing.T) {
	dir := t.TempDir()
	sizes := []int{4096, 37, 2048, 1, 999, 4096, 64}
	rng := rand.New(rand.NewSource(99))
	for round, n := range sizes {
		in := filepath.Join(dir, fmt.Sprintf("in_%d.kv", round))
		out := filepath.Join(dir, fmt.Sprintf("out_%d.kv", round))
		ps := make([]kv.Pair, n)
		for i := range ps {
			ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, Val: rng.Uint32()}
		}
		if err := writePairsErr(in, ps); err != nil {
			t.Fatal(err)
		}
		// Small host blocks force multiple runs and merge passes even for
		// the small partitions, exercising every pooled buffer class.
		cfg := Config{Device: bigDevice(), HostBlockPairs: 512, DeviceBlockPairs: 64, TempDir: dir}
		if _, err := SortFile(context.Background(), cfg, in, out); err != nil {
			t.Fatalf("round %d (n=%d): %v", round, n, err)
		}
		got, err := readPairsErr(out)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := append([]kv.Pair(nil), ps...)
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		if len(got) != n {
			t.Fatalf("round %d: sorted %d pairs, want %d (pooled buffer leaked stale length?)", round, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: pair %d = %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestPooledBufferConcurrentSorts is the contention stress pass for the
// pair pool: concurrent sorts of different-sized partitions share the
// pool, so any buffer recycled while still referenced — or handed out at
// a stale length — corrupts another goroutine's sort. Run under -race.
func TestPooledBufferConcurrentSorts(t *testing.T) {
	dir := t.TempDir()
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			n := 200 + g*731
			ps := make([]kv.Pair, n)
			for i := range ps {
				ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, Val: rng.Uint32()}
			}
			// Each sort gets its own temp dir — run file names are
			// per-sort, so concurrent sorts must not share TempDir (the
			// same contract core's partition loop follows). The pair pool
			// is still shared across all workers, which is the contention
			// under test.
			wdir := filepath.Join(dir, fmt.Sprintf("w%d", g))
			if err := os.MkdirAll(wdir, 0o755); err != nil {
				errs <- err
				return
			}
			in := filepath.Join(wdir, "in.kv")
			out := filepath.Join(wdir, "out.kv")
			if err := writePairsErr(in, ps); err != nil {
				errs <- err
				return
			}
			for iter := 0; iter < 3; iter++ {
				cfg := Config{Device: bigDevice(), HostBlockPairs: 256, DeviceBlockPairs: 32, TempDir: wdir}
				if _, err := SortFile(context.Background(), cfg, in, out); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %v", g, iter, err)
					return
				}
				got, err := readPairsErr(out)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != n {
					errs <- fmt.Errorf("worker %d iter %d: %d pairs, want %d", g, iter, len(got), n)
					return
				}
				for i := 1; i < len(got); i++ {
					if got[i].Less(got[i-1]) {
						errs <- fmt.Errorf("worker %d iter %d: unsorted at %d", g, iter, i)
						return
					}
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

// TestMergePoolAllocFree pins that the run-formation inner path reuses
// pooled buffers: after one warmup sort, a same-shape sort's host-buffer
// allocations (blocks, scratch, windows, merge output) all come from the
// pool. The assertion is on bytes, not allocation counts — small
// bookkeeping allocations (file handles, run paths) are expected, another
// round of multi-KiB pair buffers is not.
func TestMergePoolAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation sizes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	const n = 4096
	ps := make([]kv.Pair, n)
	for i := range ps {
		ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, Val: rng.Uint32()}
	}
	in := filepath.Join(dir, "in.kv")
	out := filepath.Join(dir, "out.kv")
	if err := writePairsErr(in, ps); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Device: bigDevice(), HostBlockPairs: 512, DeviceBlockPairs: 64, TempDir: dir}
	sortOnce := func() {
		if _, err := SortFile(context.Background(), cfg, in, out); err != nil {
			t.Fatal(err)
		}
	}
	sortOnce() // warm the pools
	bytes := allocBytes(sortOnce)
	// A warm sort still allocates ~140 KiB of per-op machinery (AllocWait
	// context hooks, file handles, run paths) — but without the pair and
	// block pools this shape of sort costs over 1 MiB (kvio codec blocks
	// are 160 KiB each, host blocks 12 KiB, windows and merge scratch on
	// top, all per partition). The threshold separates those regimes.
	if bytes > 300<<10 {
		t.Fatalf("warm sort allocated %d bytes; pooled buffers are not being reused", bytes)
	}
}
