package overlap

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/stats"
)

func bigDevice() *gpu.Device {
	return gpu.NewDevice(gpu.Spec{Name: "test", Cores: 64, ClockMHz: 1000,
		MemBandwidthGBps: 100, MemBytes: 1 << 30}, nil)
}

type edge struct{ u, v uint32 }

func writeSorted(t *testing.T, path string, ps []kv.Pair) {
	t.Helper()
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
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

// naiveMatches computes the expected edge multiset with a hash join.
func naiveMatches(sfx, pfx []kv.Pair) map[edge]int {
	byKey := map[kv.Key][]uint32{}
	for _, p := range pfx {
		byKey[p.Key] = append(byKey[p.Key], p.Val)
	}
	out := map[edge]int{}
	for _, s := range sfx {
		for _, v := range byKey[s.Key] {
			out[edge{s.Val, v}]++
		}
	}
	return out
}

func runReduce(t *testing.T, windowPairs int, sfx, pfx []kv.Pair) map[edge]int {
	t.Helper()
	dir := t.TempDir()
	sp := filepath.Join(dir, "sfx.kv")
	pp := filepath.Join(dir, "pfx.kv")
	writeSorted(t, sp, sfx)
	writeSorted(t, pp, pfx)
	got := map[edge]int{}
	cfg := Config{Device: bigDevice(), WindowPairs: windowPairs}
	err := ReducePaths(context.Background(), cfg, sp, pp, func(u, v uint32) error {
		got[edge{u, v}]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func pairsFromKeys(keys []uint64, valBase uint32) []kv.Pair {
	ps := make([]kv.Pair, len(keys))
	for i, k := range keys {
		ps[i] = kv.Pair{Key: kv.Key{Lo: k}, Val: valBase + uint32(i)}
	}
	return ps
}

func compareEdges(t *testing.T, got, want map[edge]int, label string) {
	t.Helper()
	for e, n := range want {
		if got[e] != n {
			t.Errorf("%s: edge %+v count = %d, want %d", label, e, got[e], n)
		}
	}
	for e, n := range got {
		if want[e] == 0 {
			t.Errorf("%s: unexpected edge %+v (count %d)", label, e, n)
		}
	}
}

func TestReduceSimpleMatches(t *testing.T) {
	sfx := pairsFromKeys([]uint64{5, 10, 15}, 0)
	pfx := pairsFromKeys([]uint64{10, 15, 20}, 100)
	got := runReduce(t, 64, sfx, pfx)
	want := naiveMatches(sfx, pfx)
	compareEdges(t, got, want, "simple")
	if len(got) != 2 {
		t.Errorf("got %d distinct edges, want 2", len(got))
	}
}

func TestReduceDuplicateKeys(t *testing.T) {
	sfx := pairsFromKeys([]uint64{7, 7, 7, 9}, 0)
	pfx := pairsFromKeys([]uint64{7, 7, 9, 9}, 100)
	got := runReduce(t, 64, sfx, pfx)
	want := naiveMatches(sfx, pfx) // 3*2 + 1*2 = 8 edges
	compareEdges(t, got, want, "dups")
	total := 0
	for _, n := range got {
		total += n
	}
	if total != 8 {
		t.Errorf("total edges = %d, want 8", total)
	}
}

func TestReduceTinyWindows(t *testing.T) {
	// Window of 2 forces many rounds, clipping, and boundary handling.
	rng := rand.New(rand.NewSource(1))
	var sfx, pfx []kv.Pair
	for i := 0; i < 100; i++ {
		sfx = append(sfx, kv.Pair{Key: kv.Key{Lo: uint64(rng.Intn(30))}, Val: uint32(i)})
		pfx = append(pfx, kv.Pair{Key: kv.Key{Lo: uint64(rng.Intn(30))}, Val: uint32(1000 + i)})
	}
	want := naiveMatches(sfx, pfx)
	for _, w := range []int{2, 3, 8, 64, 1000} {
		got := runReduce(t, w, append([]kv.Pair(nil), sfx...), append([]kv.Pair(nil), pfx...))
		compareEdges(t, got, want, fmt.Sprintf("window=%d", w))
	}
}

func TestReduceNoMatches(t *testing.T) {
	sfx := pairsFromKeys([]uint64{1, 2, 3}, 0)
	pfx := pairsFromKeys([]uint64{4, 5, 6}, 10)
	if got := runReduce(t, 4, sfx, pfx); len(got) != 0 {
		t.Errorf("expected no edges, got %v", got)
	}
}

func TestReduceEmptyInputs(t *testing.T) {
	if got := runReduce(t, 4, nil, pairsFromKeys([]uint64{1}, 0)); len(got) != 0 {
		t.Errorf("empty suffix side: %v", got)
	}
	if got := runReduce(t, 4, pairsFromKeys([]uint64{1}, 0), nil); len(got) != 0 {
		t.Errorf("empty prefix side: %v", got)
	}
}

func TestReduceAllKeysEqual(t *testing.T) {
	// The degenerate endgame: a single key dominating both lists.
	sfx := pairsFromKeys([]uint64{42, 42, 42, 42}, 0)
	pfx := pairsFromKeys([]uint64{42, 42, 42}, 100)
	got := runReduce(t, 1000, sfx, pfx)
	want := naiveMatches(sfx, pfx) // 12 edges
	compareEdges(t, got, want, "all-equal")
}

func TestReduceProperty(t *testing.T) {
	f := func(seed int64, nS, nP uint8, w8 uint8, keyRange8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		keyRange := uint64(keyRange8)%20 + 1
		var sfx, pfx []kv.Pair
		for i := 0; i < int(nS); i++ {
			sfx = append(sfx, kv.Pair{Key: kv.Key{Lo: rng.Uint64() % keyRange}, Val: uint32(i)})
		}
		for i := 0; i < int(nP); i++ {
			pfx = append(pfx, kv.Pair{Key: kv.Key{Lo: rng.Uint64() % keyRange}, Val: uint32(500 + i)})
		}
		want := naiveMatches(sfx, pfx)
		sort.Slice(sfx, func(i, j int) bool { return sfx[i].Less(sfx[j]) })
		sort.Slice(pfx, func(i, j int) bool { return pfx[i].Less(pfx[j]) })

		dir, err := mkTemp()
		if err != nil {
			return false
		}
		defer rmTemp(dir)
		sp, pp := filepath.Join(dir, "s.kv"), filepath.Join(dir, "p.kv")
		if writeErr(sp, sfx) != nil || writeErr(pp, pfx) != nil {
			return false
		}
		got := map[edge]int{}
		// Window must be >= the longest duplicate run for exactness; with
		// keyRange >= 1 and up to 255 pairs, 256 suffices.
		cfg := Config{Device: bigDevice(), WindowPairs: 256}
		if err := ReducePaths(context.Background(), cfg, sp, pp, func(u, v uint32) error {
			got[edge{u, v}]++
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for e, n := range want {
			if got[e] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReduceEmitError(t *testing.T) {
	dir := t.TempDir()
	sp, pp := filepath.Join(dir, "s.kv"), filepath.Join(dir, "p.kv")
	writeSorted(t, sp, pairsFromKeys([]uint64{1}, 0))
	writeSorted(t, pp, pairsFromKeys([]uint64{1}, 1))
	cfg := Config{Device: bigDevice(), WindowPairs: 8}
	err := ReducePaths(context.Background(), cfg, sp, pp, func(u, v uint32) error {
		return fmt.Errorf("stop")
	})
	if err == nil || err.Error() != "stop" {
		t.Errorf("emit error not propagated: %v", err)
	}
}

func TestReduceInvalidWindow(t *testing.T) {
	dir := t.TempDir()
	sp, pp := filepath.Join(dir, "s.kv"), filepath.Join(dir, "p.kv")
	writeSorted(t, sp, nil)
	writeSorted(t, pp, nil)
	cfg := Config{Device: bigDevice(), WindowPairs: 0}
	if err := ReducePaths(context.Background(), cfg, sp, pp, func(u, v uint32) error { return nil }); err == nil {
		t.Error("expected error for zero window")
	}
}

func TestReduceHostMemAccounting(t *testing.T) {
	var mem stats.MemTracker
	dir := t.TempDir()
	sp, pp := filepath.Join(dir, "s.kv"), filepath.Join(dir, "p.kv")
	writeSorted(t, sp, pairsFromKeys([]uint64{1, 2}, 0))
	writeSorted(t, pp, pairsFromKeys([]uint64{2, 3}, 5))
	cfg := Config{Device: bigDevice(), WindowPairs: 16, HostMem: &mem}
	if err := ReducePaths(context.Background(), cfg, sp, pp, func(u, v uint32) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if mem.Current() != 0 {
		t.Errorf("host memory leaked: %d", mem.Current())
	}
	// Window buffers are clamped to the partition size: 2 pairs per side,
	// each side holding its window and its prefetch spare.
	if want := int64(2*(2+2)) * kvio.HostPairBytes; mem.Peak() != want {
		t.Errorf("peak = %d, want %d", mem.Peak(), want)
	}

	// A partition larger than the window charges two full windows a side.
	var big stats.MemTracker
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = uint64(i)
	}
	writeSorted(t, sp, pairsFromKeys(keys, 0))
	writeSorted(t, pp, pairsFromKeys(keys, 100))
	cfg.HostMem = &big
	if err := ReducePaths(context.Background(), cfg, sp, pp, func(u, v uint32) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if want := int64(2*2*16) * kvio.HostPairBytes; big.Peak() != want {
		t.Errorf("large-partition peak = %d, want %d", big.Peak(), want)
	}
}
