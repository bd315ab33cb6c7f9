package gpu

import (
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/kv"
)

type streamOp struct {
	name    string
	fn      func() error
	barrier chan struct{} // non-nil: a Sync marker, always executed
}

// Stream is an ordered queue of device and host operations, the simulated
// counterpart of a CUDA stream: ops on one stream execute in enqueue
// order, ops on different streams may run (and are modeled) concurrently,
// and Sync blocks until everything enqueued so far has completed.
//
// A stream carries an optional modeled timeline line: every op charges
// its tier traffic both to the device meter (counters, the same whatever
// the placement) and to the line (modeled placement, where overlap across
// streams is what shrinks the makespan). A nil line disables modeling
// without changing how the ops execute. An async stream runs its ops on a
// background executor: it is for streams whose ops do real I/O (the
// external sort's and the overlap reducer's prefetch, which read files).
// An inline (async=false) stream executes them immediately on the caller:
// the compute streams, whose kernels produce values the caller needs, and
// an I/O stream whose ops only charge transfers (the two-hop pass's),
// where an executor would cost a goroutine and nothing would overlap.
//
// One goroutine owns a stream's enqueue side (the pipeline's per-unit
// orchestrator); Sync/Close create the happens-before edges that make the
// executor's writes visible to it, mirroring cudaStreamSynchronize.
type Stream struct {
	dev   *Device
	line  *costmodel.Line
	name  string
	async bool

	mu      sync.Mutex
	started bool
	closed  bool
	err     error
	ops     chan streamOp
	done    chan struct{}
}

// NewStream opens a command stream. line may be nil (no modeled timeline);
// async selects a real background executor goroutine versus inline
// execution on the caller. The executor starts lazily on first enqueue.
func (d *Device) NewStream(name string, line *costmodel.Line, async bool) *Stream {
	s := &Stream{dev: d, line: line, name: name, async: async}
	if async {
		s.ops = make(chan streamOp, 64)
		s.done = make(chan struct{})
	}
	return s
}

// Name returns the stream's label.
func (s *Stream) Name() string { return s.name }

// Device returns the stream's device.
func (s *Stream) Device() *Device { return s.dev }

// Line returns the stream's modeled timeline line (nil when unmodeled).
func (s *Stream) Line() *costmodel.Line { return s.line }

func (s *Stream) ensureStarted() {
	s.mu.Lock()
	if !s.started {
		s.started = true
		go s.run()
	}
	s.mu.Unlock()
}

func (s *Stream) run() {
	defer close(s.done)
	for op := range s.ops {
		if op.barrier != nil {
			close(op.barrier)
			continue
		}
		if s.failed() {
			continue // first error latches; later ops are skipped
		}
		start := time.Now()
		err := op.fn()
		if h := s.dev.hooks; h != nil {
			h.StreamOp(s.name, op.name, start, time.Since(start))
		}
		if err != nil {
			s.latch(err)
		}
	}
}

func (s *Stream) failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

func (s *Stream) latch(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Enqueue appends an operation to the stream. On an async stream it
// returns immediately and fn runs on the executor after every previously
// enqueued op; on an inline stream fn runs before Enqueue returns. After
// the stream's first error, subsequent ops are skipped — Sync reports the
// latched error. Enqueue after Close panics, as with a destroyed CUDA
// stream.
func (s *Stream) Enqueue(name string, fn func() error) {
	if !s.async {
		if s.failed() {
			return
		}
		if err := fn(); err != nil {
			s.latch(err)
		}
		return
	}
	s.ensureStarted()
	s.ops <- streamOp{name: name, fn: fn}
}

// Sync blocks until every op enqueued so far has executed and returns the
// stream's first error, like cudaStreamSynchronize.
func (s *Stream) Sync() error {
	if s.async {
		s.mu.Lock()
		started := s.started && !s.closed
		s.mu.Unlock()
		if started {
			ack := make(chan struct{})
			s.ops <- streamOp{barrier: ack}
			<-ack
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close drains the stream, stops its executor, and returns the first
// error. A stream must be closed before its buffers are reused elsewhere;
// Close is idempotent.
func (s *Stream) Close() error {
	err := s.Sync()
	if !s.async {
		return err
	}
	s.mu.Lock()
	started, closed := s.started, s.closed
	if started && !closed {
		s.closed = true
		close(s.ops)
	}
	s.mu.Unlock()
	if started && !closed {
		<-s.done
	}
	return err
}

// Charge records modeled tier traffic at the stream's current position —
// for ops (disk reads, file writes) whose size is only known inside the
// enqueued closure. Nil-safe on an unmodeled stream.
func (s *Stream) Charge(t costmodel.Tier, amount int64) {
	s.line.Charge(t, amount)
}

// WaitModeled enqueues a modeled-time dependency: the stream's next op
// starts no earlier than modeled time t (typically another stream's
// cursor, the stream-event wait of CUDA). It costs nothing at execution
// time.
func (s *Stream) WaitModeled(t float64) {
	if s.line == nil {
		return
	}
	s.Enqueue("wait", func() error {
		s.line.Wait(t)
		return nil
	})
}

// ModeledCursor returns the stream's modeled position. For an async
// stream call it after Sync, so all enqueued charges have landed.
func (s *Stream) ModeledCursor() float64 { return s.line.Cursor() }

// CopyToDeviceAsync enqueues a host-to-device transfer of n bytes: the
// meter records the same PCIe bytes as Device.CopyToDevice, and the
// modeled timeline places them in stream order.
func (s *Stream) CopyToDeviceAsync(n int64) {
	s.Enqueue("h2d", func() error {
		s.dev.CopyToDevice(n)
		s.line.Charge(costmodel.TierPCIe, n)
		return nil
	})
}

// CopyFromDeviceAsync enqueues a device-to-host transfer of n bytes.
func (s *Stream) CopyFromDeviceAsync(n int64) {
	s.Enqueue("d2h", func() error {
		s.dev.CopyFromDevice(n)
		s.line.Charge(costmodel.TierPCIe, n)
		return nil
	})
}

// chargeKernel mirrors Device.ChargeKernel onto the modeled line.
func (s *Stream) chargeKernel(memBytes, ops int64) {
	s.dev.ChargeKernel(memBytes, ops)
	s.line.Charge(costmodel.TierDeviceMem, memBytes)
	s.line.Charge(costmodel.TierDeviceOps, ops)
}

// SortPairs is Device.SortPairs on this stream: the same host sort and
// the same LSD pass charge, metered identically and also placed on the
// stream's modeled line. Value-producing kernels execute synchronously
// (the caller needs the result), so the stream is drained first.
func (s *Stream) SortPairs(ps []kv.Pair) {
	s.Sync()
	if len(ps) <= 1 {
		return
	}
	s.chargeKernel(sortPairsKernel(ps))
}

// MergePairsInto is Device.MergePairsInto on this stream.
func (s *Stream) MergePairsInto(dst, a, b []kv.Pair) []kv.Pair {
	s.Sync()
	out, mem, ops := mergePairsIntoKernel(dst, a, b)
	s.chargeKernel(mem, ops)
	return out
}

// VecLowerBound is Device.VecLowerBound on this stream.
func (s *Stream) VecLowerBound(queries, targets []kv.Pair, out []int32) []int32 {
	s.Sync()
	out = vecLowerBoundKernel(queries, targets, out)
	if len(queries) > 0 {
		s.chargeKernel(searchCost(len(queries), len(targets)))
	}
	return out
}

// VecUpperBound is Device.VecUpperBound on this stream.
func (s *Stream) VecUpperBound(queries, targets []kv.Pair, out []int32) []int32 {
	s.Sync()
	out = vecUpperBoundKernel(queries, targets, out)
	if len(queries) > 0 {
		s.chargeKernel(searchCost(len(queries), len(targets)))
	}
	return out
}

// VecDifference is Device.VecDifference on this stream.
func (s *Stream) VecDifference(u, l []int32, out []int32) []int32 {
	s.Sync()
	out = vecDifferenceKernel(u, l, out)
	s.chargeKernel(3*4*int64(len(u)), int64(len(u)))
	return out
}
