package extsort

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/kv"
)

func overlapProfile() costmodel.Profile {
	return costmodel.Profile{
		DiskReadBps:     1 << 20,
		DiskWriteBps:    1 << 20,
		NetBps:          1 << 20,
		HostMemBps:      1 << 22,
		DeviceMemBps:    1 << 24,
		DeviceOpsPerSec: 1 << 22,
		PCIeBps:         1 << 21,
	}
}

// sortOnce runs SortFile over input in its own temp dir and returns the
// raw output bytes, the meter snapshot, and the sort stats.
func sortOnce(t *testing.T, cfg Config, input []kv.Pair) ([]byte, costmodel.Counters, Stats) {
	t.Helper()
	dir := t.TempDir()
	cfg.TempDir = dir
	cfg.Meter = costmodel.NewMeter()
	inPath := filepath.Join(dir, "in.kv")
	outPath := filepath.Join(dir, "out.kv")
	writePairs(t, inPath, input)
	st, err := SortFile(context.Background(), cfg, inPath, outPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return raw, cfg.Meter.Snapshot(), st
}

// A sort executes the same way whether or not a ledger models its
// placement: a run with a ledger and a run without one give byte-identical
// output, identical cost counters and identical pass counts, and only the
// ledger run reports overlap.
func TestSortFileStreamsIdenticalToSerial(t *testing.T) {
	cases := []struct {
		n, mh, md int
		wantSaved bool // enough device/IO work to overlap
	}{
		{0, 64, 8, false},
		{1, 64, 8, false},
		{50, 64, 8, true},     // single host block, chunked device sort
		{64, 64, 8, true},     // exactly one full block
		{65, 64, 8, true},     // one spill: two runs, one merge
		{1000, 128, 16, true}, // several runs, multiple merge rounds
		{3000, 64, 2, true},   // tiny device blocks: deep window streaming
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.n)*31 + int64(tc.md)))
		input := randomPairs(rng, tc.n, 200)

		base := Config{Device: bigDevice(), HostBlockPairs: tc.mh, DeviceBlockPairs: tc.md}
		bareOut, bareCtr, bareSt := sortOnce(t, base, input)

		lg := costmodel.NewOverlapLedger(overlapProfile())
		modeled := base
		modeled.Overlap = lg
		out, ctr, st := sortOnce(t, modeled, input)

		if string(out) != string(bareOut) {
			t.Errorf("n=%d mh=%d md=%d: output with a ledger differs from without (%d vs %d bytes)",
				tc.n, tc.mh, tc.md, len(out), len(bareOut))
		}
		if ctr != bareCtr {
			t.Errorf("n=%d mh=%d md=%d: counters with a ledger %+v != without %+v",
				tc.n, tc.mh, tc.md, ctr, bareCtr)
		}
		if st != bareSt {
			t.Errorf("n=%d mh=%d md=%d: stats with a ledger %+v != without %+v",
				tc.n, tc.mh, tc.md, st, bareSt)
		}

		saved := lg.SavedSeconds()
		if saved < 0 {
			t.Errorf("n=%d mh=%d md=%d: negative saved seconds %v", tc.n, tc.mh, tc.md, saved)
		}
		if tc.wantSaved && saved <= 0 {
			t.Errorf("n=%d mh=%d md=%d: saved = %v, want > 0 (prefetch should overlap)",
				tc.n, tc.mh, tc.md, saved)
		}
		if o, s := lg.OverlappedSeconds(), lg.SerialSeconds(); o > s+1e-12 {
			t.Errorf("n=%d mh=%d md=%d: overlapped %v exceeds serial %v", tc.n, tc.mh, tc.md, o, s)
		}
	}
}

// Sorted order itself must also match the reference with a ledger attached.
func TestSortFileStreamsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	input := randomPairs(rng, 1200, 150)
	want := sortRef(input)
	cfg := Config{
		Device:           bigDevice(),
		HostBlockPairs:   100,
		DeviceBlockPairs: 10,
		Overlap:          costmodel.NewOverlapLedger(overlapProfile()),
	}
	got, _ := runSort(t, cfg, input)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key {
			t.Fatalf("pair %d: key %+v, want %+v", i, got[i].Key, want[i].Key)
		}
	}
}

// A spill that fits one run ends in drainRun, which charges its reads from
// the calling goroutine. Those charges must land after the modeled wait on
// the compute stream however the async I/O executor is scheduled: every
// repetition hides the same seconds (ROADMAP 10(c) was this flipping
// between two values).
func TestSortStreamSingleRunSavedSecondsStable(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.kv")
	writePairs(t, inPath, randomPairs(rand.New(rand.NewSource(7)), 50, 200))
	seen := map[float64]int{}
	for rep := 0; rep < 300; rep++ {
		lg := costmodel.NewOverlapLedger(overlapProfile())
		cfg := Config{Device: bigDevice(), Meter: costmodel.NewMeter(), TempDir: dir,
			HostBlockPairs: 64, DeviceBlockPairs: 8, Overlap: lg}
		st, err := SortStream(context.Background(), cfg, inPath, func([]kv.Pair) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if st.Runs != 1 {
			t.Fatalf("want a single run, got %d", st.Runs)
		}
		seen[lg.SavedSeconds()]++
	}
	if len(seen) != 1 {
		t.Errorf("SavedSeconds took %d values over 300 single-run sorts: %v", len(seen), seen)
	}
}

// A multi-pass sort charges its I/O stream from the async executor and
// from the caller, and its device-chunk pipeline on forked lines. However
// those goroutines interleave, repeating the sort must reproduce the
// ledger bit for bit, for SortFile and SortStream alike.
func TestMultiPassSortLedgerBitReproducible(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.kv")
	writePairs(t, inPath, randomPairs(rand.New(rand.NewSource(11)), 40000, 1<<40))
	prof := gpu.K40.CostProfile(costmodel.DefaultDisk.ReadBps, costmodel.DefaultDisk.WriteBps)
	sorts := map[string]func(Config) (Stats, error){
		"SortFile": func(cfg Config) (Stats, error) {
			return SortFile(context.Background(), cfg, inPath, filepath.Join(dir, "out.kv"))
		},
		"SortStream": func(cfg Config) (Stats, error) {
			return SortStream(context.Background(), cfg, inPath, func([]kv.Pair) error { return nil })
		},
	}
	for name, sort := range sorts {
		t.Run(name, func(t *testing.T) {
			type bitsOf struct{ saved, serial, overlapped uint64 }
			seen := map[bitsOf]int{}
			for rep := 0; rep < 40; rep++ {
				lg := costmodel.NewOverlapLedger(prof)
				cfg := Config{Device: gpu.NewDevice(gpu.K40, nil), TempDir: dir,
					HostBlockPairs: 4096, DeviceBlockPairs: 512, Overlap: lg}
				st, err := sort(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.MergeRounds < 2 {
					t.Fatalf("%d merge rounds, want a multi-pass sort", st.MergeRounds)
				}
				seen[bitsOf{math.Float64bits(lg.SavedSeconds()), math.Float64bits(lg.SerialSeconds()),
					math.Float64bits(lg.OverlappedSeconds())}]++
			}
			if len(seen) != 1 {
				t.Errorf("the ledger took %d distinct bit patterns over 40 identical sorts: %v", len(seen), seen)
			}
		})
	}
}
