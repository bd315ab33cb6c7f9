package gpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/kv"
)

// keyed builds pairs carrying the given keys in Key.Lo.
func keyed(keys ...uint64) []kv.Pair {
	ps := make([]kv.Pair, len(keys))
	for i, k := range keys {
		ps[i] = kv.Pair{Key: kv.Key{Lo: k}, Val: uint32(i)}
	}
	return ps
}

func sortByKey(ps []kv.Pair) []kv.Pair {
	slices.SortFunc(ps, func(a, b kv.Pair) int { return a.Key.Cmp(b.Key) })
	return ps
}

// checkBounds holds both kernels to the scalar searches they replace, for
// every query. The outputs are appended to a dirty, reused slice, as
// overlap.Reduce passes them.
func checkBounds(t testing.TB, name string, queries, targets []kv.Pair) {
	t.Helper()
	dirty := []int32{-7, -7, -7}
	lb := vecLowerBoundKernel(queries, targets, dirty)
	ub := vecUpperBoundKernel(queries, targets, nil)
	if len(lb) != len(queries) || len(ub) != len(queries) {
		t.Fatalf("%s: %d/%d bounds for %d queries", name, len(lb), len(ub), len(queries))
	}
	for i, q := range queries {
		if want := kv.LowerBound(targets, q.Key); int(lb[i]) != want {
			t.Fatalf("%s: query %d (key %v): lower bound %d, want %d", name, i, q.Key, lb[i], want)
		}
		if want := kv.UpperBound(targets, q.Key); int(ub[i]) != want {
			t.Fatalf("%s: query %d (key %v): upper bound %d, want %d", name, i, q.Key, ub[i], want)
		}
	}
}

// TestVecBoundsSweepMatchesScalar is the differential test of the monotone
// sweep: on the shapes overlap.Reduce produces (sorted windows with
// duplicate runs) and on everything else the primitive's contract allows
// (unsorted queries, empty sides), the bounds equal kv.LowerBound and
// kv.UpperBound.
func TestVecBoundsSweepMatchesScalar(t *testing.T) {
	run := make([]uint64, 40) // a duplicate run longer than the 5-target slice below
	for i := range run {
		run[i] = 4
	}
	cases := []struct {
		name             string
		queries, targets []kv.Pair
	}{
		{"empty queries", nil, keyed(1, 2, 3)},
		{"empty targets", keyed(1, 2, 3), nil},
		{"both empty", nil, nil},
		{"single query", keyed(5), keyed(1, 3, 5, 5, 9)},
		{"all equal keys", keyed(4, 4, 4, 4), keyed(4, 4, 4, 4, 4, 4)},
		{"duplicate run longer than the targets", keyed(run...), keyed(1, 4, 4, 4, 8)},
		{"queries below the targets", keyed(1, 2, 2, 3), keyed(10, 11, 12)},
		{"queries above the targets", keyed(20, 21, 21, 30), keyed(10, 11, 12)},
		{"straddling", keyed(1, 10, 10, 11, 13, 40), keyed(10, 10, 12, 13, 13, 13, 14)},
		{"descending queries", keyed(9, 7, 5, 3, 1), keyed(2, 4, 4, 6, 8)},
		{"one regression mid-run", keyed(1, 5, 9, 2, 6, 9, 9), keyed(1, 2, 5, 5, 6, 9, 9, 12)},
	}
	for _, tc := range cases {
		checkBounds(t, tc.name, tc.queries, tc.targets)
	}

	// Hi and Lo both take part in the order.
	wide := func(rng *rand.Rand, n int) []kv.Pair {
		ps := make([]kv.Pair, n)
		for i := range ps {
			ps[i] = kv.Pair{Key: kv.Key{Hi: rng.Uint64() % 4, Lo: rng.Uint64() % 16}, Val: uint32(i)}
		}
		return ps
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		targets := sortByKey(wide(rng, rng.Intn(200)))
		queries := wide(rng, rng.Intn(200))
		checkBounds(t, fmt.Sprintf("trial %d unsorted", trial), queries, targets)
		checkBounds(t, fmt.Sprintf("trial %d sorted", trial), sortByKey(queries), targets)
	}
	// Sparse queries over many targets: every gallop runs several doublings.
	targets := sortByKey(randomPairs(rng, 1<<14, 1<<20))
	checkBounds(t, "sparse sorted", sortByKey(randomPairs(rng, 50, 1<<20)), targets)
	checkBounds(t, "dense sorted", sortByKey(randomPairs(rng, 1<<15, 1<<20)), targets)
}

// FuzzVecBounds decodes two key lists from the input — one byte of key per
// pair, so duplicates and regressions are common — and holds the kernels
// to the scalar searches on the queries as given and sorted.
func FuzzVecBounds(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 2, 3})
	f.Add([]byte{9, 1, 9, 1}, []byte{})
	f.Add([]byte{}, []byte{5})
	f.Add([]byte{4, 4, 4, 4, 4, 4, 4, 4}, []byte{4, 4})
	f.Fuzz(func(t *testing.T, qs, ts []byte) {
		decode := func(bs []byte) []kv.Pair {
			ps := make([]kv.Pair, len(bs))
			for i, b := range bs {
				ps[i] = kv.Pair{Key: kv.Key{Hi: uint64(b >> 6), Lo: uint64(b & 63)}, Val: uint32(i)}
			}
			return ps
		}
		queries, targets := decode(qs), sortByKey(decode(ts))
		checkBounds(t, "as given", queries, targets)
		checkBounds(t, "sorted", sortByKey(queries), targets)
	})
}

// TestVecBoundsChargesPinned pins what the bound kernels charge for a fixed
// input — the meter totals through Device and through Stream, and the
// stream's modeled timeline — to the values the per-query binary search
// charged before the kernels became a sweep. The model prices one thread
// per query descending log2(len(targets)) levels however the host computes
// the bounds.
func TestVecBoundsChargesPinned(t *testing.T) {
	mk := func(n int, mul uint64) []kv.Pair {
		ps := make([]kv.Pair, n)
		for i := range ps {
			k := uint64(i) * mul
			ps[i] = kv.Pair{Key: kv.Key{Hi: k % 5, Lo: k % 977}, Val: uint32(i)}
		}
		return sortByKey(ps)
	}
	queries, targets := mk(37, 131), mk(1000, 17)

	const wantMeter = "{DiskReadBytes:0 DiskWriteBytes:0 NetBytes:0 HostMemBytes:0 DeviceMemBytes:15244 DeviceOps:777 PCIeBytes:0}"
	const wantSpans = "[{Tier:device_mem Start:0 End:74} {Tier:device_ops Start:74 End:77.7} {Tier:device_mem Start:77.7 End:151.7} " +
		"{Tier:device_ops Start:151.7 End:155.39999999999998} {Tier:device_mem Start:155.39999999999998 End:159.83999999999997} " +
		"{Tier:device_ops Start:159.83999999999997 End:160.20999999999998}]"

	d := testDevice()
	lb := d.VecLowerBound(queries, targets, nil)
	ub := d.VecUpperBound(queries, targets, nil)
	d.VecDifference(ub, lb, nil)
	if got := fmt.Sprintf("%+v", d.Meter().Snapshot()); got != wantMeter {
		t.Errorf("Device charges\n got %s\nwant %s", got, wantMeter)
	}

	sd := testDevice()
	tl := costmodel.NewOverlapLedger(streamProfile()).NewTimeline()
	s := sd.NewStream("bounds", tl.Line("bounds"), false)
	lb = s.VecLowerBound(queries, targets, lb)
	ub = s.VecUpperBound(queries, targets, ub)
	s.VecDifference(ub, lb, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", sd.Meter().Snapshot()); got != wantMeter {
		t.Errorf("Stream charges\n got %s\nwant %s", got, wantMeter)
	}
	if got := fmt.Sprintf("%+v", s.Line().Spans()); got != wantSpans {
		t.Errorf("Stream timeline\n got %s\nwant %s", got, wantSpans)
	}
}
