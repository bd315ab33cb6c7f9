package kvio

import (
	"io"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/kv"
)

// HostPairBytes is the host-memory footprint of one kv.Pair (a 16-byte
// key and a 4-byte value, padded to 24): what a buffer of pairs is
// charged against a host-memory budget.
const HostPairBytes = 24

// ClampPairs caps a buffer size at the number of pairs actually present,
// keeping at least one slot so a window over an empty file still detects
// the end of it.
func ClampPairs(size int, count int64) int {
	if count < int64(size) {
		return max(int(count), 1)
	}
	return size
}

// Window is a sliding window of unconsumed pairs over a sequential Reader,
// double-buffered so that the next window can be built on an I/O stream
// while the caller still reads the current one — how the external sort's
// merge passes and the reduce stream their inputs.
//
// The window moves forward in one of two ways, which yield the same
// windows and the same Done:
//
//   - Advance(s, n) enqueues on s an op that drops the first n pairs and
//     tops the rest up from the reader into the spare buffer; after s
//     syncs, Adopt installs the result. The op never writes the current
//     buffer, so the caller may keep reading Pairs()[:n] until the sync.
//   - Consume(n) then Fill() does the same synchronously, for callers with
//     nothing in flight on the stream.
//
// The caller supplies both backing buffers and owns them throughout: the
// window swaps them, never reallocates them, so after the stream has
// synced the caller may recycle the two slices it passed in.
type Window struct {
	r     *Reader
	buf   []kv.Pair
	spare []kv.Pair
	size  int
	done  bool

	pending     bool // an Advance is enqueued and not yet adopted
	pendingBuf  []kv.Pair
	pendingDone bool
}

// NewWindow returns an empty window over r holding up to len(a) pairs in
// a or b, which must be distinct arrays with len(b) >= len(a) > 0.
func NewWindow(r *Reader, a, b []kv.Pair) *Window {
	return &Window{r: r, buf: a[:0], spare: b[:0], size: len(a)}
}

// Pairs returns the window's current pairs; the slice is valid until the
// next Consume, Fill or Adopt.
func (w *Window) Pairs() []kv.Pair { return w.buf }

// Done reports whether the reader holds no pairs beyond the window.
func (w *Window) Done() bool { return w.done }

// topUp reads into dst[len(dst):w.size] until it is full or the reader is
// exhausted, returning the grown slice, the pairs read and whether the
// reader is now exhausted. The end of the file is detected by Remaining
// as well as by io.EOF, so a window that ends exactly at a window boundary
// is done without a further, empty read.
func (w *Window) topUp(dst []kv.Pair, done bool) ([]kv.Pair, int, bool, error) {
	read := 0
	for len(dst) < w.size && !done {
		n := len(dst)
		m, err := w.r.ReadBatch(dst[n:w.size])
		dst = dst[:n+m]
		read += m
		if err == io.EOF {
			return dst, read, true, nil
		}
		if err != nil {
			return dst, read, done, err
		}
	}
	return dst, read, done || w.r.Remaining() == 0, nil
}

// Fill tops the window up to capacity from the reader.
func (w *Window) Fill() error {
	var err error
	w.buf, _, w.done, err = w.topUp(w.buf, w.done)
	return err
}

// Consume drops the first n pairs from the window.
func (w *Window) Consume(n int) {
	w.buf = w.buf[:copy(w.buf, w.buf[n:])]
}

// Advance enqueues the window's next state on s: drop the first n pairs,
// then top up from the reader, building the result in the spare buffer.
// The disk bytes read are charged to s's modeled line (the reader feeds
// the meter itself). Call Adopt once s has synced.
func (w *Window) Advance(s *gpu.Stream, n int) {
	w.pending = true
	s.Enqueue("advance-window", func() error {
		nb := append(w.spare[:0], w.buf[n:]...)
		nb, read, done, err := w.topUp(nb, w.done)
		w.pendingBuf, w.pendingDone = nb, done
		s.Charge(costmodel.TierDiskRead, int64(read)*kv.PairBytes)
		return err
	})
}

// Adopt installs the last Advance's result as the current window. Call it
// only after the Advance's stream has synced; without a pending Advance it
// does nothing.
func (w *Window) Adopt() {
	if !w.pending {
		return
	}
	w.pending = false
	w.buf, w.spare = w.pendingBuf, w.buf[:0]
	w.done = w.pendingDone
	w.pendingBuf = nil
}
