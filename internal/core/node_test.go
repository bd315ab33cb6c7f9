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
	"sync/atomic"
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

func (c cancelOnCharge) KernelCharge(int64, int64)                       { c() }
func (cancelOnCharge) KernelLaunch(int, time.Time, time.Duration)        {}
func (cancelOnCharge) AllocWaited(int64, time.Time, time.Duration)       {}
func (cancelOnCharge) StreamOp(string, string, time.Time, time.Duration) {}

// poolProbe records what runOrdered did with each index: how often it was
// produced (successfully) and released, the order it was consumed in, how
// many produce calls were made and how many are still running, and the
// most indices claimed but not yet consumed at once.
type poolProbe struct {
	produced, released []atomic.Int32
	consumed           []int
	calls, live        atomic.Int32
	ahead, maxAhead    atomic.Int32
	workers            int
}

func newPoolProbe(n int) *poolProbe {
	return &poolProbe{produced: make([]atomic.Int32, n), released: make([]atomic.Int32, n)}
}

// run drives runOrdered over the probe: body is each produce's work and
// fail, given the index being consumed, returns consume's error.
func (p *poolProbe) run(workers int, body func(i int) error, fail func(i int) error) error {
	p.workers = workers
	return runOrdered(workers, len(p.produced), func(_, i int) (int, error) {
		p.calls.Add(1)
		for a := p.ahead.Add(1); ; {
			m := p.maxAhead.Load()
			if a <= m || p.maxAhead.CompareAndSwap(m, a) {
				break
			}
		}
		p.live.Add(1)
		defer p.live.Add(-1)
		if err := body(i); err != nil {
			return i, err
		}
		p.produced[i].Add(1)
		return i, nil
	}, func(i int) error {
		p.consumed = append(p.consumed, i)
		p.ahead.Add(-1)
		return fail(i)
	}, func(i int) { p.released[i].Add(1) })
}

// check asserts the contract that holds however the call ended: no
// producer is still running, no more indices were ever claimed ahead of the
// consumer than the lookahead allows, the consumed indices are 0, 1, ...
// in order, and every value produced but not consumed was released exactly
// once.
func (p *poolProbe) check(t *testing.T) {
	t.Helper()
	if live := p.live.Load(); live != 0 {
		t.Errorf("%d producers still running after runOrdered returned", live)
	}
	if m := int(p.maxAhead.Load()); m > lookahead(p.workers) {
		t.Errorf("%d indices claimed ahead of the consumer, want at most %d", m, lookahead(p.workers))
	}
	for i, got := range p.consumed {
		if got != i {
			t.Fatalf("consumed %v, want 0, 1, 2, ... in order", p.consumed)
		}
	}
	for i := range p.produced {
		want := p.produced[i].Load()
		if i < len(p.consumed) {
			want = 0
		}
		if got := p.released[i].Load(); got != want {
			t.Errorf("index %d (produced %d times, consumed %v): released %d times, want %d",
				i, p.produced[i].Load(), i < len(p.consumed), got, want)
		}
	}
}

// TestRunOrdered pins the pool Map, Sort and Reduce run on: consume sees
// the indices in order, the earliest failure wins whatever the timing, a
// value never consumed is released, a failing consume stops the claims, a
// slow consumer holds the producers to the lookahead and no producer
// outlives the call.
func TestRunOrdered(t *testing.T) {
	none := func(int) error { return nil }
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Run("consumes in order", func(t *testing.T) {
				p := newPoolProbe(50)
				err := p.run(workers, func(i int) error {
					time.Sleep(time.Duration(i%5) * 100 * time.Microsecond) // finish out of order
					return nil
				}, none)
				if err != nil || len(p.consumed) != 50 {
					t.Fatalf("err = %v after %d values, want nil after 50", err, len(p.consumed))
				}
				p.check(t)
			})

			t.Run("lookahead is bounded", func(t *testing.T) {
				// The consumer holds index 0 until the producers have
				// claimed the whole window, then gives them time to
				// overrun it.
				want := lookahead(workers)
				if workers == 1 {
					want = 1 // serial: each value is consumed before the next
				}
				var claimedAtFirst int32
				full := make(chan struct{})
				p := newPoolProbe(40)
				err := p.run(workers, func(i int) error {
					if i == want-1 { // claims are in index order
						close(full)
					}
					return nil
				}, func(i int) error {
					if i != 0 {
						return nil
					}
					select {
					case <-full:
					case <-time.After(10 * time.Second):
						return fmt.Errorf("only %d of %d window slots were claimed", p.calls.Load(), want)
					}
					// No event marks a claim that must not happen; give the
					// producers time to make one.
					time.Sleep(20 * time.Millisecond)
					claimedAtFirst = p.calls.Load()
					return nil
				})
				if err != nil || len(p.consumed) != 40 {
					t.Fatalf("err = %v after %d values, want nil after 40", err, len(p.consumed))
				}
				if int(claimedAtFirst) != want {
					t.Errorf("%d indices claimed while index 0 was being consumed, want %d", claimedAtFirst, want)
				}
				p.check(t)
			})

			t.Run("earliest produce failure wins", func(t *testing.T) {
				const k = 5
				errK, errLater := errors.New("index k"), errors.New("index k+1")
				laterFailed := make(chan struct{})
				p := newPoolProbe(20)
				err := p.run(workers, func(i int) error {
					switch {
					case i == k+1:
						close(laterFailed)
						return errLater
					case i == k && workers > 1:
						// Another worker claims k+1 while this one holds k.
						select {
						case <-laterFailed:
						case <-time.After(10 * time.Second):
							t.Error("index k+1 was never produced")
						}
						return errK
					case i == k:
						return errK
					case i > k+1:
						// As below: the pool stops claiming once k+1 fails.
						<-laterFailed
						time.Sleep(50 * time.Millisecond)
					}
					return nil
				}, none)
				if !errors.Is(err, errK) || len(p.consumed) != k {
					t.Fatalf("err = %v after %d values, want %v after %d", err, len(p.consumed), errK, k)
				}
				if calls := int(p.calls.Load()); calls > k+workers {
					t.Errorf("%d indices claimed, want at most %d", calls, k+workers)
				}
				p.check(t)
			})

			t.Run("releases what is not consumed", func(t *testing.T) {
				const c = 3
				errC := errors.New("consume c")
				nextProduced := make(chan struct{})
				p := newPoolProbe(20)
				err := p.run(workers, func(i int) error {
					if i == c+1 {
						defer close(nextProduced)
					}
					return nil
				}, func(i int) error {
					if i != c {
						return nil
					}
					if workers > 1 {
						<-nextProduced // at least one value is left unconsumed
					}
					return errC
				})
				if !errors.Is(err, errC) || len(p.consumed) != c+1 {
					t.Fatalf("err = %v after %d values, want %v after %d", err, len(p.consumed), errC, c+1)
				}
				p.check(t)
				if released := p.released[c+1].Load(); workers > 1 && released != 1 {
					t.Errorf("index c+1 was produced before consume failed but released %d times", released)
				}
			})

			t.Run("consume failure stops claiming", func(t *testing.T) {
				const c, n = 2, 64
				errC := errors.New("consume c")
				gate := make(chan struct{})
				p := newPoolProbe(n)
				err := p.run(workers, func(i int) error {
					if i > c {
						// Each worker holds at most one index past c until
						// consume fails. The pool's stop flag is set just after
						// consume returns, with no event a test can wait on, so
						// the producer lingers as slow work would before it
						// could claim another.
						<-gate
						time.Sleep(50 * time.Millisecond)
					}
					return nil
				}, func(i int) error {
					if i == c {
						close(gate)
						return errC
					}
					return nil
				})
				if !errors.Is(err, errC) {
					t.Fatalf("err = %v, want %v", err, errC)
				}
				if calls := int(p.calls.Load()); calls > c+1+workers {
					t.Errorf("%d of %d indices claimed, want at most %d", calls, n, c+1+workers)
				}
				p.check(t)
			})
		})
	}
}
