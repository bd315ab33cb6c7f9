package kvio_test

// The fsync ledger: which files the on-disk tier pays durability for. A
// file is fsynced iff it outlives the function that creates it, so an
// external sort syncs its one output — before the rename that publishes
// it — and none of the runs and merges it unlinks itself. The tests swap
// the package's fsync hook and therefore must not run in parallel.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/extsort"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/readsim"
)

const (
	ledgerHostBlock   = 64 // m_h: one run per 64 pairs
	ledgerDeviceBlock = 8
)

var ledgerRuns = []int{0, 1, 2, 3, 8}

// ledgerSortConfig returns a sort configuration (with an overlap ledger
// attached when modeled is set) and an input file forming exactly runs
// sorted runs.
func ledgerSortConfig(t *testing.T, runs int, modeled bool) (cfg extsort.Config, inPath string, pairs int) {
	t.Helper()
	dir := t.TempDir()
	pairs = runs * ledgerHostBlock
	if runs > 0 {
		pairs -= ledgerHostBlock / 2 // a short last run
	}
	rng := rand.New(rand.NewSource(int64(runs) + 1))
	ps := make([]kv.Pair, pairs)
	for i := range ps {
		ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, Val: uint32(i)}
	}
	inPath = filepath.Join(dir, "in.kv")
	w, err := kvio.NewWriter(inPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(ps); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cfg = extsort.Config{
		Device: gpu.NewDevice(gpu.Spec{Name: "test", Cores: 1024, ClockMHz: 1000,
			MemBandwidthGBps: 100, MemBytes: 1 << 30}, nil),
		HostBlockPairs:   ledgerHostBlock,
		DeviceBlockPairs: ledgerDeviceBlock,
		TempDir:          filepath.Join(dir, "sort_tmp"),
	}
	if modeled {
		cfg.Overlap = costmodel.NewOverlapLedger(costmodel.Profile{
			DiskReadBps: 1 << 20, DiskWriteBps: 1 << 20, NetBps: 1 << 20, HostMemBps: 1 << 22,
			DeviceMemBps: 1 << 24, DeviceOpsPerSec: 1 << 22, PCIeBps: 1 << 21,
		})
	}
	if err := os.Mkdir(cfg.TempDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return cfg, inPath, pairs
}

// forEachLedgerCase runs fn for every run count, with a nil overlap ledger
// and with one (the subtest label's streams= names which). The sort
// executes the same way in both; the axis checks that modeling placement
// changes nothing on disk.
func forEachLedgerCase(t *testing.T, fn func(t *testing.T, runs int, modeled bool)) {
	for _, runs := range ledgerRuns {
		for _, modeled := range []bool{false, true} {
			t.Run(fmt.Sprintf("runs=%d/streams=%v", runs, modeled), func(t *testing.T) {
				fn(t, runs, modeled)
			})
		}
	}
}

func TestFsyncLedgerSortFileSyncsOnlyItsOutput(t *testing.T) {
	forEachLedgerCase(t, func(t *testing.T, runs int, modeled bool) {
		cfg, inPath, pairs := ledgerSortConfig(t, runs, modeled)
		outPath := filepath.Join(filepath.Dir(inPath), "out.kv")

		var synced []os.FileInfo
		restore := kvio.SwapFileSync(func(f *os.File) error {
			info, err := f.Stat()
			if err != nil {
				return err
			}
			if _, err := os.Lstat(outPath); !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("output already published when %s was synced (lstat: %v)", f.Name(), err)
			}
			synced = append(synced, info)
			return f.Sync()
		})
		st, err := extsort.SortFile(context.Background(), cfg, inPath, outPath)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if st.Runs != runs {
			t.Fatalf("sort formed %d runs, the case wants %d", st.Runs, runs)
		}
		if len(synced) != 1 {
			t.Fatalf("SortFile fsynced %d files, want exactly its output", len(synced))
		}
		out, err := os.Stat(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(synced[0], out) {
			t.Errorf("the synced file %s is not the one published at %s", synced[0].Name(), outPath)
		}
		if want := int64(pairs) * kv.PairBytes; synced[0].Size() != want || out.Size() != want {
			t.Errorf("synced %d bytes, published %d, want the complete %d", synced[0].Size(), out.Size(), want)
		}
		if left, _ := os.ReadDir(cfg.TempDir); len(left) != 0 {
			t.Errorf("sort left %d files in its scratch directory", len(left))
		}
	})
}

func TestFsyncLedgerSortStreamSyncsNothing(t *testing.T) {
	forEachLedgerCase(t, func(t *testing.T, runs int, modeled bool) {
		cfg, inPath, pairs := ledgerSortConfig(t, runs, modeled)
		calls := 0
		restore := kvio.SwapFileSync(func(f *os.File) error {
			calls++
			return f.Sync()
		})
		emitted := 0
		st, err := extsort.SortStream(context.Background(), cfg, inPath, func(ps []kv.Pair) error {
			emitted += len(ps)
			return nil
		})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if st.Runs != runs || emitted != pairs {
			t.Fatalf("streamed %d pairs from %d runs, want %d from %d", emitted, st.Runs, pairs, runs)
		}
		if calls != 0 {
			t.Errorf("SortStream fsynced %d files; every run dies inside the call", calls)
		}
		if left, _ := os.ReadDir(cfg.TempDir); len(left) != 0 {
			t.Errorf("sort left %d files in its scratch directory", len(left))
		}
	})
}

// A failing fsync of the output fails the sort, names the output, and
// publishes nothing.
func TestFsyncLedgerSortFileReportsSyncFailure(t *testing.T) {
	for _, runs := range ledgerRuns {
		t.Run(fmt.Sprintf("runs=%d", runs), func(t *testing.T) {
			cfg, inPath, _ := ledgerSortConfig(t, runs, false)
			outPath := filepath.Join(filepath.Dir(inPath), "out.kv")
			injected := errors.New("device lost power")
			restore := kvio.SwapFileSync(func(*os.File) error { return injected })
			_, err := extsort.SortFile(context.Background(), cfg, inPath, outPath)
			restore()
			if !errors.Is(err, injected) {
				t.Fatalf("SortFile error = %v, want the injected fsync failure", err)
			}
			if !strings.Contains(err.Error(), outPath) {
				t.Errorf("error %q does not name the output", err)
			}
			if _, err := os.Lstat(outPath); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("an output that could not be synced was published (lstat: %v)", err)
			}
		})
	}
}

// One pipeline-level count: Sort pays one fsync per partition file however
// many passes each sort takes, so the multi-pass regime (asm_multipass's
// shape: host blocks far smaller than a partition) costs what the one-pass
// regime of the same reads does.
func TestFsyncLedgerPipelineSortStage(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 2000, Seed: 77})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 48, Coverage: 10, Seed: 78})

	sortSyncs := func(hostBlock, deviceBlock int) (syncs int64, res *core.Result) {
		var inSort atomic.Bool
		var n atomic.Int64
		restore := kvio.SwapFileSync(func(f *os.File) error {
			if inSort.Load() {
				n.Add(1)
			}
			return f.Sync()
		})
		defer restore()
		cfg := core.DefaultConfig(t.TempDir())
		cfg.MinOverlap = 31
		cfg.MapBatchReads = 256
		cfg.Workers = 2
		cfg.HostBlockPairs, cfg.DeviceBlockPairs = hostBlock, deviceBlock
		cfg.Progress = func(stage, event string) {
			if stage == string(core.PhaseSort) {
				inSort.Store(event == core.ProgressStart)
			}
		}
		p, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err = p.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		return n.Load(), res
	}

	onePass, one := sortSyncs(1<<16, 1<<10)
	multiPass, multi := sortSyncs(128, 32)
	if one.SortDiskPasses != 1 || multi.SortDiskPasses < 3 {
		t.Fatalf("disk passes %d and %d: the configurations are not the one-pass and multi-pass regimes",
			one.SortDiskPasses, multi.SortDiskPasses)
	}
	if want := int64(2 * one.Partitions); onePass != want || multiPass != want {
		t.Errorf("Sort fsynced %d files in one pass and %d in %d passes, want 2 x %d lengths = %d in both",
			onePass, multiPass, multi.SortDiskPasses, one.Partitions, want)
	}
}
