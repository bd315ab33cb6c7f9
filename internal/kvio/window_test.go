package kvio

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kv"
)

// windowCase is one oracle run: a file of count distinct pairs, a window
// of size pairs, the consume sizes to step by (each taken modulo
// the window's length + 1, then whole windows until the end), and a
// length to truncate the file to after both readers opened it (-1 keeps
// it whole; a cut inside a record makes the readers fail).
type windowCase struct {
	name     string
	count    int
	size     int
	steps    []int
	truncate int64
}

// checkWindow drives two windows over the same file, one moved by
// Advance + Adopt on an async stream and one by Consume + Fill, and fails
// at the first step where their pairs, Done or error differ. On an intact
// file it also checks that the pairs consumed are the file's, in order.
func checkWindow(t *testing.T, tc windowCase) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.kv")
	want := make([]kv.Pair, tc.count)
	for i := range want {
		want[i] = kv.Pair{Key: kv.Key{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i)}, Val: uint32(i)}
	}
	w, err := NewScratchWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ra, err := NewReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := NewReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if tc.truncate >= 0 {
		if err := os.Truncate(path, tc.truncate); err != nil {
			t.Fatal(err)
		}
	}

	s := gpu.NewDevice(gpu.K40, nil).NewStream("io", nil, true)
	defer s.Close()
	wa := NewWindow(ra, make([]kv.Pair, tc.size), make([]kv.Pair, tc.size))
	wb := NewWindow(rb, make([]kv.Pair, tc.size), make([]kv.Pair, tc.size))
	var got []kv.Pair
	step := func(i, n int) bool {
		wa.Advance(s, n)
		errA := s.Sync()
		wa.Adopt()
		got = append(got, wb.Pairs()[:n]...)
		wb.Consume(n)
		errB := wb.Fill()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("step %d: Advance error %v, Fill error %v", i, errA, errB)
		}
		if !slices.Equal(wa.Pairs(), wb.Pairs()) || wa.Done() != wb.Done() {
			t.Fatalf("step %d (consume %d): Advance gave %d pairs done=%v, Fill %d pairs done=%v",
				i, n, len(wa.Pairs()), wa.Done(), len(wb.Pairs()), wb.Done())
		}
		if len(wa.Pairs()) > tc.size {
			t.Fatalf("step %d: window holds %d pairs, capacity %d", i, len(wa.Pairs()), tc.size)
		}
		return errA == nil && (len(wa.Pairs()) > 0 || !wa.Done())
	}
	if !step(0, 0) {
		return
	}
	for i, n := range tc.steps {
		if !step(i+1, n%(len(wa.Pairs())+1)) {
			return
		}
	}
	for i := len(tc.steps) + 1; step(i, len(wa.Pairs())); i++ {
		if i > tc.count+len(tc.steps)+2 {
			t.Fatalf("no end after %d steps", i)
		}
	}
	if tc.truncate < 0 {
		got = append(got, wb.Pairs()...)
		if !slices.Equal(got, want) {
			t.Errorf("consumed %d pairs, the file holds %d (or their order differs)", len(got), len(want))
		}
	}
}

func TestWindowAdvanceMatchesConsumeFill(t *testing.T) {
	rec := int64(kv.PairBytes)
	for _, tc := range []windowCase{
		{"empty", 0, 1, nil, -1},
		{"one-pair", 1, 1, nil, -1},
		{"eof-at-first-boundary", 8, 8, nil, -1},
		{"eof-at-third-boundary", 24, 8, []int{8, 8}, -1},
		{"eof-mid-window", 21, 8, []int{3, 0, 5, 7}, -1},
		{"no-progress-steps", 10, 4, []int{0, 0, 0}, -1},
		{"window-larger-than-file", 5, 64, []int{2}, -1},
		{"single-slot", 7, 1, []int{1, 0, 1}, -1},
		{"truncated-at-record", 40, 8, []int{3, 8}, 13 * rec},
		{"truncated-mid-record", 40, 8, []int{3, 8}, 13*rec + 5},
		{"truncated-inside-first-window", 40, 16, nil, 3*rec + 1},
		{"truncated-to-nothing", 40, 8, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) { checkWindow(t, tc) })
	}
}

func TestClampPairs(t *testing.T) {
	for _, c := range []struct {
		size  int
		count int64
		want  int
	}{{16, 100, 16}, {16, 16, 16}, {16, 5, 5}, {16, 0, 1}} {
		if got := ClampPairs(c.size, c.count); got != c.want {
			t.Errorf("ClampPairs(%d, %d) = %d, want %d", c.size, c.count, got, c.want)
		}
	}
}

// FuzzWindow holds Advance + Adopt to Consume + Fill over random counts,
// capacities, consume sizes and truncations (see checkWindow).
func FuzzWindow(f *testing.F) {
	f.Add(uint16(24), uint8(7), []byte{8, 8}, int64(-1))
	f.Add(uint16(21), uint8(7), []byte{3, 0, 5, 7}, int64(-1))
	f.Add(uint16(40), uint8(7), []byte{3, 8}, int64(13*kv.PairBytes+5))
	f.Add(uint16(0), uint8(0), []byte{}, int64(-1))
	f.Fuzz(func(t *testing.T, count uint16, size uint8, steps []byte, truncate int64) {
		tc := windowCase{count: int(count % 2048), size: int(size%64) + 1, truncate: -1}
		if truncate >= 0 {
			tc.truncate = truncate % (int64(tc.count)*kv.PairBytes + 1)
		}
		for _, b := range steps {
			tc.steps = append(tc.steps, int(b))
		}
		checkWindow(t, tc)
	})
}
