package extsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/kv"
	"repro/internal/kvio"
)

func TestSortFileMissingInput(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Device: bigDevice(), HostBlockPairs: 64, DeviceBlockPairs: 8, TempDir: dir}
	if _, err := SortFile(context.Background(), cfg, filepath.Join(dir, "nope.kv"), filepath.Join(dir, "out.kv")); err == nil {
		t.Error("missing input should fail")
	}
}

func TestSortFileCorruptInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.kv")
	if err := os.WriteFile(in, make([]byte, kv.PairBytes+5), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Device: bigDevice(), HostBlockPairs: 64, DeviceBlockPairs: 8, TempDir: dir}
	if _, err := SortFile(context.Background(), cfg, in, filepath.Join(dir, "out.kv")); err == nil {
		t.Error("corrupt input should fail")
	}
}

func TestSortFileUnusableTempDir(t *testing.T) {
	// A temp "directory" that is actually a file fails run creation even
	// when running as root (permission bits would not).
	dir := t.TempDir()
	in := filepath.Join(dir, "in.kv")
	writePairs(t, in, randomPairsForErr(300))
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Device: bigDevice(), HostBlockPairs: 64, DeviceBlockPairs: 8, TempDir: blocked}
	if _, err := SortFile(context.Background(), cfg, in, filepath.Join(blocked, "out.kv")); err == nil {
		t.Error("unusable temp dir should fail")
	}
}

func TestSortFileInvalidConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Device: nil, HostBlockPairs: 64, DeviceBlockPairs: 8, TempDir: dir}
	if _, err := SortFile(context.Background(), cfg, "x", "y"); err == nil {
		t.Error("invalid config should fail before touching files")
	}
}

// cancelInMerge is a device hook that cancels a sort from inside the merge
// writing the watched file: the first kernel charged while that file
// exists is one of that merge's.
type cancelInMerge struct {
	watch  string
	cancel context.CancelFunc
}

func (h cancelInMerge) KernelLaunch(int, time.Time, time.Duration)        {}
func (h cancelInMerge) AllocWaited(int64, time.Time, time.Duration)       {}
func (h cancelInMerge) StreamOp(string, string, time.Time, time.Duration) {}
func (h cancelInMerge) KernelCharge(int64, int64) {
	if _, err := os.Stat(h.watch); err == nil {
		h.cancel()
	}
}

// A sort cancelled in any merge round publishes nothing and removes the
// merge file it was half-way through, so a caller that owns TempDir (the
// benchmark's replay, these tests) is not left a torn merge_*.kv.
func TestSortFileCancelMidMergeRemovesPartialOutput(t *testing.T) {
	// 8 runs merge as 4 + 2 + 1: merge files 1, 5 and 7 are the first of
	// rounds 1, 2 and 3.
	for _, gen := range []int{1, 5, 7} {
		// The streams= label names whether a ledger is attached.
		for _, ledger := range []bool{false, true} {
			t.Run(fmt.Sprintf("merge=%d/streams=%v", gen, ledger), func(t *testing.T) {
				dir := t.TempDir()
				in := filepath.Join(dir, "in.kv")
				out := filepath.Join(dir, "out.kv")
				tmp := filepath.Join(dir, "tmp")
				if err := os.Mkdir(tmp, 0o755); err != nil {
					t.Fatal(err)
				}
				// Random keys, so every pair of runs interleaves and merges
				// through the device.
				writePairs(t, in, randomPairs(rand.New(rand.NewSource(int64(gen))), 8*64, 1<<40))
				doomed := filepath.Join(tmp, fmt.Sprintf("merge_%06d.kv", gen))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				dev := bigDevice()
				dev.SetHooks(cancelInMerge{watch: doomed, cancel: cancel})
				cfg := Config{Device: dev, HostBlockPairs: 64, DeviceBlockPairs: 8, TempDir: tmp}
				if ledger {
					cfg.Overlap = costmodel.NewOverlapLedger(overlapProfile())
				}
				if _, err := SortFile(ctx, cfg, in, out); !errors.Is(err, context.Canceled) {
					t.Fatalf("SortFile error = %v, want context.Canceled", err)
				}
				if _, err := os.Lstat(out); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("cancelled sort published an output (lstat: %v)", err)
				}
				if _, err := os.Lstat(doomed); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("cancelled sort left its unfinished %s behind (lstat: %v)", filepath.Base(doomed), err)
				}
			})
		}
	}
}

func randomPairsForErr(n int) []kv.Pair {
	ps := make([]kv.Pair, n)
	for i := range ps {
		ps[i] = kv.Pair{Key: kv.Key{Hi: uint64(i * 7919), Lo: uint64(i)}, Val: uint32(i)}
	}
	return ps
}

// A block read that fails before yielding a pair — here the input was cut
// mid-record after the sort opened it, right behind the first host block —
// fails the sort instead of ending run formation as if the input were
// exhausted.
func TestSortRunsReportsReadErrorAtBlockBoundary(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.kv")
	writePairs(t, in, randomPairsForErr(100))
	r, err := kvio.NewReader(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := os.Truncate(in, 64*kv.PairBytes+5); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Device: bigDevice(), HostBlockPairs: 64, DeviceBlockPairs: 8, TempDir: dir}
	ioS, cmp, done := cfg.streams()
	defer done()
	runs, release, err := sortRuns(context.Background(), cfg, ioS, cmp, r)
	release()
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("sortRuns formed %d runs with error %v, want the truncation error", len(runs), err)
	}
}
