package extsort

import (
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/stats"
)

func bigDevice() *gpu.Device {
	return gpu.NewDevice(gpu.Spec{Name: "test", Cores: 1024, ClockMHz: 1000,
		MemBandwidthGBps: 100, MemBytes: 1 << 30}, nil)
}

func writePairs(t *testing.T, path string, ps []kv.Pair) {
	t.Helper()
	w, err := kvio.NewWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(ps); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readPairs(t *testing.T, path string) []kv.Pair {
	t.Helper()
	r, err := kvio.NewReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make([]kv.Pair, 0, r.Count())
	buf := make([]kv.Pair, 128)
	for {
		n, err := r.ReadBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func randomPairs(rng *rand.Rand, n int, keyRange uint64) []kv.Pair {
	ps := make([]kv.Pair, n)
	for i := range ps {
		ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64() % keyRange, Lo: rng.Uint64() % keyRange},
			Val: uint32(i)}
	}
	return ps
}

func sortRef(ps []kv.Pair) []kv.Pair {
	out := append([]kv.Pair(nil), ps...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

func runSort(t *testing.T, cfg Config, input []kv.Pair) ([]kv.Pair, Stats) {
	t.Helper()
	dir := t.TempDir()
	cfg.TempDir = dir
	in := filepath.Join(dir, "in.kv")
	out := filepath.Join(dir, "out.kv")
	writePairs(t, in, input)
	st, err := SortFile(context.Background(), cfg, in, out)
	if err != nil {
		t.Fatal(err)
	}
	// The output's sum is the one its writer folded before the rename.
	if sum, err := kvio.SumFile(out); err != nil || sum != st.Output {
		t.Fatalf("output sums to %+v (%v) on disk, SortFile reported %+v", sum, err, st.Output)
	}
	return readPairs(t, out), st
}

func TestSortFileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n, mh, md int
	}{
		{0, 64, 8},
		{1, 64, 8},
		{50, 64, 8},     // single block, single chunk round
		{64, 64, 8},     // exact block
		{65, 64, 8},     // one spill
		{1000, 128, 16}, // many runs, multiple merge rounds
		{777, 100, 10},  // non-power-of-two everything
		{3000, 64, 2},   // tiny device chunks
	}
	for _, c := range cases {
		input := randomPairs(rng, c.n, 1<<16)
		cfg := Config{Device: bigDevice(), HostBlockPairs: c.mh, DeviceBlockPairs: c.md}
		got, st := runSort(t, cfg, input)
		want := sortRef(input)
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d pairs, want %d", c.n, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key {
				t.Fatalf("n=%d mh=%d md=%d: key mismatch at %d", c.n, c.mh, c.md, i)
			}
		}
		if st.Pairs != int64(c.n) {
			t.Errorf("n=%d: stats.Pairs = %d", c.n, st.Pairs)
		}
	}
}

func TestSortFileHeavyDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	input := randomPairs(rng, 2000, 3) // nearly all keys collide
	cfg := Config{Device: bigDevice(), HostBlockPairs: 128, DeviceBlockPairs: 16}
	got, _ := runSort(t, cfg, input)
	if !kv.SortedPairs(got) {
		t.Fatal("output not sorted")
	}
	// Same multiset: values are a permutation.
	counts := map[uint32]int{}
	for _, p := range input {
		counts[p.Val]++
	}
	for _, p := range got {
		counts[p.Val]--
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("value %d count off by %d", v, c)
		}
	}
}

func TestSortFileProperty(t *testing.T) {
	f := func(seed int64, n16 uint16, mh8, md8 uint8) bool {
		n := int(n16) % 600
		mh := int(mh8)%100 + 4
		md := int(md8)%(mh) + 1
		rng := rand.New(rand.NewSource(seed))
		input := randomPairs(rng, n, 1<<8)
		dir, err := mkTemp()
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		cfg := Config{Device: bigDevice(), HostBlockPairs: mh, DeviceBlockPairs: md, TempDir: dir}
		in := filepath.Join(dir, "in.kv")
		out := filepath.Join(dir, "out.kv")
		if err := writePairsErr(in, input); err != nil {
			return false
		}
		if _, err := SortFile(context.Background(), cfg, in, out); err != nil {
			return false
		}
		got, err := readPairsErr(out)
		if err != nil || len(got) != n {
			return false
		}
		return kv.SortedPairs(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDiskPassesMatchPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ n, mh int }{
		{100, 128}, {256, 128}, {257, 128}, {1000, 128}, {1024, 64},
	} {
		input := randomPairs(rng, c.n, 1<<20)
		cfg := Config{Device: bigDevice(), HostBlockPairs: c.mh, DeviceBlockPairs: 16}
		_, st := runSort(t, cfg, input)
		if want := PredictedDiskPasses(int64(c.n), c.mh); st.DiskPasses != want {
			t.Errorf("n=%d mh=%d: DiskPasses = %d, want %d", c.n, c.mh, st.DiskPasses, want)
		}
	}
}

func TestPredictedDiskPasses(t *testing.T) {
	cases := []struct {
		n    int64
		mh   int
		want int
	}{
		{10, 100, 1},  // fits in one block
		{100, 100, 1}, // exactly one block
		{101, 100, 2}, // two runs -> one merge round
		{400, 100, 3}, // four runs -> two rounds
		{500, 100, 4}, // five runs -> three rounds
		{800, 100, 4}, // eight runs -> three rounds
	}
	for _, c := range cases {
		if got := PredictedDiskPasses(c.n, c.mh); got != c.want {
			t.Errorf("PredictedDiskPasses(%d, %d) = %d, want %d", c.n, c.mh, got, c.want)
		}
	}
}

func TestLargerHostBlockFewerDiskBytes(t *testing.T) {
	// The Fig. 8 effect: a larger host block-size means fewer disk passes
	// and strictly less disk traffic for the same input.
	rng := rand.New(rand.NewSource(4))
	input := randomPairs(rng, 4000, 1<<24)
	measure := func(mh int) int64 {
		meter := costmodel.NewMeter()
		cfg := Config{Device: bigDevice(), Meter: meter, HostBlockPairs: mh, DeviceBlockPairs: 32}
		got, _ := runSort(t, cfg, input)
		if !kv.SortedPairs(got) {
			t.Fatal("not sorted")
		}
		c := meter.Snapshot()
		return c.DiskReadBytes + c.DiskWriteBytes
	}
	small := measure(256)
	large := measure(2048)
	if large >= small {
		t.Errorf("disk bytes: mh=2048 -> %d should be < mh=256 -> %d", large, small)
	}
}

func TestHostMemAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	input := randomPairs(rng, 500, 1<<16)
	var mem stats.MemTracker
	cfg := Config{Device: bigDevice(), HostMem: &mem, HostBlockPairs: 128, DeviceBlockPairs: 16}
	runSort(t, cfg, input)
	if mem.Current() != 0 {
		t.Errorf("host memory leaked: %d", mem.Current())
	}
	if mem.Peak() < HostBytes(128) {
		t.Errorf("peak host = %d, want at least the block buffers and merge scratch (%d)", mem.Peak(), HostBytes(128))
	}
}

func TestDeviceMemoryBounded(t *testing.T) {
	// A small device must still sort correctly, and its peak allocation
	// must stay within capacity.
	small := gpu.NewDevice(gpu.Spec{Name: "tiny", Cores: 8, ClockMHz: 100,
		MemBandwidthGBps: 1, MemBytes: 4 * 2 * kv.PairBytes}, nil)
	rng := rand.New(rand.NewSource(6))
	input := randomPairs(rng, 300, 1<<16)
	cfg := Config{Device: small, HostBlockPairs: 64, DeviceBlockPairs: 4}
	got, _ := runSort(t, cfg, input)
	if !kv.SortedPairs(got) {
		t.Fatal("not sorted")
	}
	if small.MemTracker().Peak() > small.Capacity() {
		t.Errorf("device peak %d exceeds capacity %d", small.MemTracker().Peak(), small.Capacity())
	}
}

func TestValidate(t *testing.T) {
	d := bigDevice()
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Device: d, HostBlockPairs: 100, DeviceBlockPairs: 10}, true},
		{Config{Device: nil, HostBlockPairs: 100, DeviceBlockPairs: 10}, false},
		{Config{Device: d, HostBlockPairs: 0, DeviceBlockPairs: 10}, false},
		{Config{Device: d, HostBlockPairs: 10, DeviceBlockPairs: 100}, false},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: err=%v ok=%v", i, err, c.ok)
		}
	}
	tiny := gpu.NewDevice(gpu.Spec{Name: "t", MemBytes: 10}, nil)
	if err := (Config{Device: tiny, HostBlockPairs: 100, DeviceBlockPairs: 50}).Validate(); err == nil {
		t.Error("expected capacity error")
	}
}

func TestSortedInputSingleBlockPreserved(t *testing.T) {
	// Pre-sorted input must survive and stay stable-ish (keys equal).
	input := make([]kv.Pair, 200)
	for i := range input {
		input[i] = kv.Pair{Key: kv.Key{Lo: uint64(i / 2)}, Val: uint32(i)}
	}
	cfg := Config{Device: bigDevice(), HostBlockPairs: 64, DeviceBlockPairs: 8}
	got, _ := runSort(t, cfg, input)
	if !kv.SortedPairs(got) {
		t.Fatal("not sorted")
	}
	if len(got) != 200 {
		t.Fatalf("len = %d", len(got))
	}
}

// TestSortStreamMatchesSortFile pins the streaming variant against the
// file-writing one: identical pair sequence (keys and values), no final
// output file, and one fewer disk write of the full data.
func TestSortStreamMatchesSortFile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		n, mh, md int
	}{
		{0, 64, 8},
		{1, 64, 8},
		{50, 64, 8},     // single run: drain path
		{130, 64, 8},    // three runs: one merge round then 2-run stream
		{1000, 128, 16}, // many runs
		{777, 100, 10},
		{2000, 64, 4},
	}
	for _, c := range cases {
		input := randomPairs(rng, c.n, 1<<16)
		cfg := Config{Device: bigDevice(), HostBlockPairs: c.mh, DeviceBlockPairs: c.md}
		want, wantSt := runSort(t, cfg, input)

		dir := t.TempDir()
		scfg := cfg
		scfg.TempDir = dir
		in := filepath.Join(dir, "in.kv")
		writePairs(t, in, input)
		var got []kv.Pair
		st, err := SortStream(context.Background(), scfg, in, func(ps []kv.Pair) error {
			got = append(got, ps...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d pairs, want %d", c.n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d mh=%d md=%d: pair mismatch at %d: %+v vs %+v",
					c.n, c.mh, c.md, i, got[i], want[i])
			}
		}
		if st.Pairs != wantSt.Pairs || st.Runs != wantSt.Runs {
			t.Errorf("n=%d: stats (pairs=%d runs=%d) vs SortFile (pairs=%d runs=%d)",
				c.n, st.Pairs, st.Runs, wantSt.Pairs, wantSt.Runs)
		}
		// No run or merge scratch may survive.
		left, err := filepath.Glob(filepath.Join(dir, "*.kv"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 1 { // just in.kv
			t.Errorf("n=%d: leftover scratch files: %v", c.n, left)
		}
	}
}

// TestSortStreamEmitError propagates a consumer error without hanging.
func TestSortStreamEmitError(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	input := randomPairs(rng, 500, 1<<16)
	dir := t.TempDir()
	cfg := Config{Device: bigDevice(), HostBlockPairs: 64, DeviceBlockPairs: 8, TempDir: dir}
	in := filepath.Join(dir, "in.kv")
	writePairs(t, in, input)
	wantErr := io.ErrClosedPipe
	_, err := SortStream(context.Background(), cfg, in, func(ps []kv.Pair) error {
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}
