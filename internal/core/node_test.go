package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// mappedNode maps reads on a fresh node with the given worker count and
// returns it with the partition counts, ready for SortPartitions.
func mappedNode(t *testing.T, reads *dna.ReadSet, workers int) (*Node, map[int]int64) {
	t.Helper()
	cfg := smallConfig(t)
	cfg.Workers = workers
	n := NewNode(cfg, gpu.NewDevice(cfg.GPU, nil), obs.Track{}, cfg.Workspace)
	counts, _, err := n.MapBlocks(context.Background(), reads, []ReadRange{{0, reads.NumReads()}})
	if err != nil {
		t.Fatal(err)
	}
	return n, counts
}

// sortedNode is mappedNode with the partitions sorted, ready for
// FindOverlaps.
func sortedNode(t *testing.T, reads *dna.ReadSet, workers int) (*Node, map[int]int64) {
	t.Helper()
	n, counts := mappedNode(t, reads, workers)
	if _, _, err := n.SortPartitions(context.Background(), counts, RawPartition, sortedPartition); err != nil {
		t.Fatal(err)
	}
	return n, counts
}

// Of several failing sorts the one earliest in the schedule (longest
// partition, suffix side first) is reported whatever the scheduling, and no
// sort leaves its private scratch behind.
func TestSortPartitionsReportsEarliestFailure(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)
	for rep := 0; rep < 5; rep++ {
		n, counts := mappedNode(t, reads, 4)
		for _, f := range []string{RawPartition(kvio.Prefix, 40), RawPartition(kvio.Suffix, 36), RawPartition(kvio.Suffix, 33)} {
			if err := os.Remove(filepath.Join(n.Scratch, f)); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := n.SortPartitions(context.Background(), counts, RawPartition, sortedPartition)
		if err == nil || !strings.Contains(err.Error(), "sorting partition 40 (pfx)") {
			t.Fatalf("rep %d: error = %v, want the failure of partition 40 (pfx)", rep, err)
		}
		if left, _ := filepath.Glob(filepath.Join(n.Scratch, "sort_*")); len(left) != 0 {
			t.Fatalf("rep %d: sort scratch left behind: %v", rep, left)
		}
	}
}

// apply sees every partition exactly once, longest first, at any worker
// count, and the candidates buffered for it are off the host tracker again
// when FindOverlaps returns.
func TestFindOverlapsAppliesInDescendingOrder(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)
	var want []string
	for _, workers := range []int{1, 4} {
		n, counts := sortedNode(t, reads, workers)
		start := n.HostMem.Current()
		var lengths []int
		var got []string
		err := n.FindOverlaps(context.Background(), reads, counts, sortedPartition, func(o Overlaps) {
			lengths = append(lengths, o.Length)
			got = append(got, fmt.Sprint(o.Length, o.Candidates, o.Edges))
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(lengths) != len(counts) || !sort.IsSorted(sort.Reverse(sort.IntSlice(lengths))) {
			t.Errorf("workers=%d: applied %v, want all %d lengths in descending order", workers, lengths, len(counts))
		}
		if want == nil {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: overlaps differ from the serial run's", workers)
		}
		if cur := n.HostMem.Current(); cur != start {
			t.Errorf("workers=%d: host tracker at %d after FindOverlaps, %d before", workers, cur, start)
		}
	}
}

// A failing partition and a cancellation both drain the pool: the error
// surfaces, nothing past the failure is applied, the host tracker is back
// where it started and no worker goroutine is left.
func TestFindOverlapsDrainsOnErrorAndCancel(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)

	t.Run("error in partition k", func(t *testing.T) {
		n, counts := sortedNode(t, reads, 4)
		baseline := runtime.NumGoroutine()
		const k = 38
		if err := os.Remove(filepath.Join(n.Scratch, sortedPartition(kvio.Prefix, k))); err != nil {
			t.Fatal(err)
		}
		start := n.HostMem.Current()
		err := n.FindOverlaps(context.Background(), reads, counts, sortedPartition, func(o Overlaps) {
			if o.Length <= k {
				t.Errorf("partition %d applied although partition %d failed", o.Length, k)
			}
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("reducing partition %d", k)) {
			t.Fatalf("error = %v, want partition %d's", err, k)
		}
		if cur := n.HostMem.Current(); cur != start {
			t.Errorf("host tracker at %d after the failure, %d before", cur, start)
		}
		waitForGoroutines(t, baseline)
	})

	t.Run("cancellation", func(t *testing.T) {
		n, counts := sortedNode(t, reads, 4)
		baseline := runtime.NumGoroutine()
		start := n.HostMem.Current()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The first device charge any worker makes cancels the run; the
		// partitions dispatched after that fail inside their jobs.
		n.Device.SetHooks(cancelOnCharge(cancel))
		err := n.FindOverlaps(ctx, reads, counts, sortedPartition, func(Overlaps) {})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if cur := n.HostMem.Current(); cur != start {
			t.Errorf("host tracker at %d after the cancellation, %d before", cur, start)
		}
		waitForGoroutines(t, baseline)
	})
}

// cancelOnCharge is a device hook that cancels a context on every kernel
// charge.
type cancelOnCharge context.CancelFunc

func (c cancelOnCharge) KernelCharge(int64, int64)                 { c() }
func (cancelOnCharge) KernelLaunch(int, time.Time, time.Duration)  {}
func (cancelOnCharge) AllocWaited(int64, time.Time, time.Duration) {}
