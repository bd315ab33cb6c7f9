package gpu

import (
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/kv"
)

func testDevice() *Device {
	return NewDevice(Spec{Name: "test", Cores: 1000, ClockMHz: 1000,
		MemBandwidthGBps: 100, MemBytes: 1 << 20}, nil)
}

func TestAllocAccounting(t *testing.T) {
	d := testDevice()
	a, err := d.Alloc(1 << 19)
	if err != nil {
		t.Fatal(err)
	}
	if d.InUse() != 1<<19 {
		t.Fatalf("InUse = %d", d.InUse())
	}
	b, err := d.Alloc(1 << 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(1); err == nil {
		t.Fatal("expected out-of-memory")
	} else {
		var oom ErrOutOfMemory
		if !errors.As(err, &oom) {
			t.Fatalf("error type = %T", err)
		}
		if oom.Capacity != 1<<20 || oom.Requested != 1 {
			t.Errorf("oom fields = %+v", oom)
		}
	}
	a.Free()
	a.Free() // double free is a no-op
	b.Free()
	if d.InUse() != 0 {
		t.Fatalf("InUse after frees = %d", d.InUse())
	}
	if d.MemTracker().Peak() != 1<<20 {
		t.Errorf("peak = %d, want %d", d.MemTracker().Peak(), 1<<20)
	}
}

func TestAllocNegative(t *testing.T) {
	d := testDevice()
	if _, err := d.Alloc(-5); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestMustAllocPanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Error("MustAlloc should panic on OOM")
		}
	}()
	d.MustAlloc(d.Capacity() + 1)
}

func randomPairs(rng *rand.Rand, n int, keyRange uint64) []kv.Pair {
	ps := make([]kv.Pair, n)
	for i := range ps {
		ps[i] = kv.Pair{
			Key: kv.Key{Hi: rng.Uint64() % keyRange, Lo: rng.Uint64()},
			Val: rng.Uint32(),
		}
	}
	return ps
}

func TestSortPairsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 10, 1000, 4096} {
		d := testDevice()
		ps := randomPairs(rng, n, 1<<40)
		want := append([]kv.Pair(nil), ps...)
		sort.Slice(want, func(i, j int) bool { return want[i].Key.Less(want[j].Key) })
		d.SortPairs(ps)
		if !kv.SortedPairs(ps) {
			t.Fatalf("n=%d: output not sorted", n)
		}
		for i := range ps {
			if ps[i].Key != want[i].Key {
				t.Fatalf("n=%d: key mismatch at %d", n, i)
			}
		}
	}
}

func TestSortPairsProperty(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := randomPairs(rng, int(n16)%500, 8) // heavy duplicates
		testDevice().SortPairs(ps)
		return kv.SortedPairs(ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSortPairsChargesCost(t *testing.T) {
	meter := costmodel.NewMeter()
	d := NewDevice(K40, meter)
	rng := rand.New(rand.NewSource(3))
	d.SortPairs(randomPairs(rng, 1000, 1<<63))
	c := meter.Snapshot()
	if c.DeviceMemBytes == 0 || c.DeviceOps == 0 {
		t.Errorf("sort should be metered, got %+v", c)
	}
}

func TestSortPairsSkipsUniformPasses(t *testing.T) {
	// Keys confined to the low byte: only one radix pass should execute.
	meter := costmodel.NewMeter()
	d := NewDevice(K40, meter)
	rng := rand.New(rand.NewSource(4))
	ps := make([]kv.Pair, 1024)
	for i := range ps {
		ps[i] = kv.Pair{Key: kv.Key{Lo: uint64(rng.Intn(256))}}
	}
	d.SortPairs(ps)
	if !kv.SortedPairs(ps) {
		t.Fatal("not sorted")
	}
	got := meter.Snapshot().DeviceMemBytes
	want := int64(1) * 2 * 1024 * kv.PairBytes
	if got != want {
		t.Errorf("metered %d bytes, want %d (one pass)", got, want)
	}
}

func TestMergePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := testDevice()
	a := randomPairs(rng, 300, 1<<20)
	b := randomPairs(rng, 211, 1<<20)
	d.SortPairs(a)
	d.SortPairs(b)
	out := d.MergePairs(a, b)
	if len(out) != 511 || !kv.SortedPairs(out) {
		t.Fatalf("merge output len=%d sorted=%v", len(out), kv.SortedPairs(out))
	}
	dst := make([]kv.Pair, 0, 511)
	out2 := d.MergePairsInto(dst, a, b)
	if len(out2) != len(out) {
		t.Fatal("MergePairsInto length mismatch")
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("MergePairsInto differs at %d", i)
		}
	}
}

// TestMergePairsIntoGrowsDst pins MergePairsInto's dst contract on both
// entry points: a nil or short dst is grown, one with capacity for both
// inputs is filled in place, and the merge and its charge are the same.
func TestMergePairsIntoGrowsDst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomPairs(rng, 300, 1<<20)
	b := randomPairs(rng, 211, 1<<20)
	testDevice().SortPairs(a)
	testDevice().SortPairs(b)
	want := testDevice().MergePairs(a, b)

	merges := map[string]func(d *Device, dst []kv.Pair) []kv.Pair{
		"Device": func(d *Device, dst []kv.Pair) []kv.Pair { return d.MergePairsInto(dst, a, b) },
		"Stream": func(d *Device, dst []kv.Pair) []kv.Pair {
			s := d.NewStream("merge", nil, true)
			defer s.Close()
			return s.MergePairsInto(dst, a, b)
		},
	}
	for name, merge := range merges {
		for _, dst := range []struct {
			name string
			buf  []kv.Pair
		}{
			{"nil", nil},
			{"short", make([]kv.Pair, 7, 100)},
			{"exact", make([]kv.Pair, 0, len(a)+len(b))},
		} {
			d := testDevice()
			got := merge(d, dst.buf)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: merged %d pairs, want %d", name, dst.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: pair %d = %v, want %v", name, dst.name, i, got[i], want[i])
				}
			}
			if dst.name == "exact" && &got[0] != &dst.buf[:1][0] {
				t.Errorf("%s/exact: result does not reuse dst", name)
			}
			wantMem := 2 * int64(len(want)) * kv.PairBytes
			if c := d.Meter().Snapshot(); c.DeviceMemBytes != wantMem || c.DeviceOps != int64(len(want)) {
				t.Errorf("%s/%s: charged %d bytes %d ops, want %d and %d",
					name, dst.name, c.DeviceMemBytes, c.DeviceOps, wantMem, len(want))
			}
		}
	}
}

func TestMergePairsEmptySides(t *testing.T) {
	d := testDevice()
	a := []kv.Pair{{Key: kv.Key{Lo: 1}}, {Key: kv.Key{Lo: 2}}}
	if got := d.MergePairs(a, nil); len(got) != 2 {
		t.Error("merge with empty right failed")
	}
	if got := d.MergePairs(nil, a); len(got) != 2 {
		t.Error("merge with empty left failed")
	}
	if got := d.MergePairs(nil, nil); len(got) != 0 {
		t.Error("merge of empties should be empty")
	}
}

func TestVecBounds(t *testing.T) {
	d := testDevice()
	targets := []kv.Pair{
		{Key: kv.Key{Lo: 2}}, {Key: kv.Key{Lo: 4}}, {Key: kv.Key{Lo: 4}}, {Key: kv.Key{Lo: 7}},
	}
	queries := []kv.Pair{
		{Key: kv.Key{Lo: 1}}, {Key: kv.Key{Lo: 4}}, {Key: kv.Key{Lo: 5}}, {Key: kv.Key{Lo: 9}},
	}
	lb := d.VecLowerBound(queries, targets, nil)
	ub := d.VecUpperBound(queries, targets, nil)
	diff := d.VecDifference(ub, lb, nil)
	wantLB := []int32{0, 1, 3, 4}
	wantUB := []int32{0, 3, 3, 4}
	wantC := []int32{0, 2, 0, 0}
	for i := range queries {
		if lb[i] != wantLB[i] || ub[i] != wantUB[i] || diff[i] != wantC[i] {
			t.Errorf("query %d: lb=%d ub=%d c=%d, want %d %d %d",
				i, lb[i], ub[i], diff[i], wantLB[i], wantUB[i], wantC[i])
		}
	}
}

func TestVecBoundsAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := testDevice()
	targets := randomPairs(rng, 400, 32)
	d.SortPairs(targets)
	queries := randomPairs(rng, 100, 32)
	lb := d.VecLowerBound(queries, targets, nil)
	ub := d.VecUpperBound(queries, targets, nil)
	for i, q := range queries {
		if int(lb[i]) != kv.LowerBound(targets, q.Key) {
			t.Fatalf("lower bound mismatch at %d", i)
		}
		if int(ub[i]) != kv.UpperBound(targets, q.Key) {
			t.Fatalf("upper bound mismatch at %d", i)
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	d := testDevice()
	xs := []int64{3, 1, 4, 1, 5}
	out := make([]int64, len(xs))
	total := d.ExclusiveScan(xs, out)
	want := []int64{0, 3, 4, 8, 9}
	if total != 14 {
		t.Errorf("total = %d, want 14", total)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	if got := d.ExclusiveScan(nil, nil); got != 0 {
		t.Errorf("empty scan total = %d", got)
	}
}

func TestGatherScatter(t *testing.T) {
	d := testDevice()
	src := []string{"a", "b", "c", "d"}
	idx := []int32{3, 0, 2}
	out := make([]string, 3)
	Gather(d, src, idx, out)
	if out[0] != "d" || out[1] != "a" || out[2] != "c" {
		t.Errorf("Gather = %v", out)
	}
	dst := make([]string, 4)
	Scatter(d, []string{"x", "y", "z"}, idx, dst)
	if dst[3] != "x" || dst[0] != "y" || dst[2] != "z" {
		t.Errorf("Scatter = %v", dst)
	}
}

func TestLaunchBlocksCoversAll(t *testing.T) {
	d := testDevice()
	var seen atomic.Int64
	hits := make([]atomic.Bool, 100)
	d.LaunchBlocks(100, func(b int) {
		hits[b].Store(true)
		seen.Add(1)
	})
	if seen.Load() != 100 {
		t.Fatalf("kernel ran %d times, want 100", seen.Load())
	}
	for i := range hits {
		if !hits[i].Load() {
			t.Fatalf("block %d never ran", i)
		}
	}
	d.LaunchBlocks(0, func(int) { t.Error("should not run") })
}

func TestSpecCatalog(t *testing.T) {
	if got, ok := SpecByName("V100"); !ok || got.Cores != 5120 {
		t.Errorf("SpecByName(V100) = %+v, %v", got, ok)
	}
	if _, ok := SpecByName("RTX9090"); ok {
		t.Error("unknown card should not resolve")
	}
	// Bandwidth ordering drives Fig. 9: V100 > P100 > P40 > K40 > K20X.
	order := []Spec{V100, P100, P40, K40, K20X}
	for i := 1; i < len(order); i++ {
		if order[i].MemBps() >= order[i-1].MemBps() {
			t.Errorf("bandwidth order broken: %s >= %s", order[i].Name, order[i-1].Name)
		}
	}
	p := K40.CostProfile(100e6, 90e6)
	if p.DiskReadBps != 100e6 || p.DeviceMemBps <= 0 {
		t.Errorf("CostProfile = %+v", p)
	}
}
