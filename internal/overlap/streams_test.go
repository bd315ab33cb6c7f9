package overlap

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/costmodel"
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

// reduceOnce runs one reduce and returns the ordered emission log and the
// meter snapshot. The log keeps emission order, not just the multiset: a
// ledger must not reorder edges.
func reduceOnce(t *testing.T, windowPairs int, lg *costmodel.OverlapLedger, sfx, pfx []kv.Pair) ([]edge, costmodel.Counters) {
	t.Helper()
	dir := t.TempDir()
	sp := filepath.Join(dir, "sfx.kv")
	pp := filepath.Join(dir, "pfx.kv")
	writeSorted(t, sp, append([]kv.Pair(nil), sfx...))
	writeSorted(t, pp, append([]kv.Pair(nil), pfx...))
	var got []edge
	cfg := Config{
		Device:      bigDevice(),
		Meter:       costmodel.NewMeter(),
		WindowPairs: windowPairs,
		Overlap:     lg,
	}
	err := ReducePaths(context.Background(), cfg, sp, pp, func(u, v uint32) error {
		got = append(got, edge{u, v})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, cfg.Meter.Snapshot()
}

// A reduce executes the same way whether or not a ledger models its
// placement: with and without one it emits the same edges in the same
// order with the same counters, across window sizes that exercise
// clipping, refills, and the duplicate-run drain path.
func TestReduceStreamsIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sfx, pfx []kv.Pair
	for i := 0; i < 400; i++ {
		sfx = append(sfx, kv.Pair{Key: kv.Key{Lo: uint64(rng.Intn(500))}, Val: uint32(i)})
		pfx = append(pfx, kv.Pair{Key: kv.Key{Lo: uint64(rng.Intn(500))}, Val: uint32(10000 + i)})
	}
	// A fingerprint run longer than the small windows forces the drain
	// path.
	for i := 0; i < 30; i++ {
		sfx = append(sfx, kv.Pair{Key: kv.Key{Lo: 250}, Val: uint32(20000 + i)})
		pfx = append(pfx, kv.Pair{Key: kv.Key{Lo: 250}, Val: uint32(30000 + i)})
	}

	// Window 1000 holds both partitions in one round, so there is nothing
	// to prefetch and saved seconds are legitimately zero; identity must
	// still hold.
	for _, w := range []int{2, 3, 8, 64, 1000} {
		wantSaved := w < 1000
		t.Run(fmt.Sprintf("window=%d", w), func(t *testing.T) {
			bareEdges, bareCtr := reduceOnce(t, w, nil, sfx, pfx)

			lg := costmodel.NewOverlapLedger(overlapProfile())
			edges, ctr := reduceOnce(t, w, lg, sfx, pfx)

			if len(edges) != len(bareEdges) {
				t.Fatalf("with a ledger emitted %d edges, without %d", len(edges), len(bareEdges))
			}
			for i := range bareEdges {
				if edges[i] != bareEdges[i] {
					t.Fatalf("edge %d: with a ledger %+v, without %+v (order must match)",
						i, edges[i], bareEdges[i])
				}
			}
			if ctr != bareCtr {
				t.Fatalf("counters with a ledger %+v != without %+v", ctr, bareCtr)
			}
			if saved := lg.SavedSeconds(); saved < 0 {
				t.Errorf("negative saved seconds %v", saved)
			} else if wantSaved && saved <= 0 {
				t.Errorf("saved = %v, want > 0 (window prefetch should overlap kernels)", saved)
			}
			if o, s := lg.OverlappedSeconds(), lg.SerialSeconds(); o > s+1e-12 {
				t.Errorf("overlapped %v exceeds serial %v", o, s)
			}
		})
	}
}
