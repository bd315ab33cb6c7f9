package gpu

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/stats"
)

// Hooks observes device events for the observability layer: grid
// launches, custom-kernel charges, and allocator backpressure. All
// methods may be called concurrently from pipeline workers and must not
// block. A nil Hooks disables instrumentation at zero cost.
type Hooks interface {
	// KernelLaunch fires after LaunchBlocks finishes a grid of blocks
	// thread blocks that started at start and ran for wall.
	KernelLaunch(blocks int, start time.Time, wall time.Duration)
	// KernelCharge fires on every ChargeKernel call. It is the hottest
	// hook (one call per device primitive); implementations should only
	// bump pre-resolved atomic counters.
	KernelCharge(memBytes, ops int64)
	// AllocWaited fires when AllocWait had to block for capacity: the
	// request was parked at start and waited wait before being granted.
	// Immediate grants do not fire, so every event is real device-queue
	// backpressure.
	AllocWaited(bytes int64, start time.Time, wait time.Duration)
	// StreamOp fires after an asynchronous stream executed op on stream;
	// the observability layer draws these as overlapping stream tracks.
	// Inline ops do not fire: the enclosing span already covers them.
	StreamOp(stream, op string, start time.Time, wall time.Duration)
}

// ErrOutOfMemory is returned when an allocation would exceed the device's
// memory capacity. Pipeline stages size their batches so this never fires
// in normal operation; tests exercise it deliberately.
type ErrOutOfMemory struct {
	Requested int64
	InUse     int64
	Capacity  int64
}

func (e ErrOutOfMemory) Error() string {
	return fmt.Sprintf("gpu: out of device memory: requested %d with %d in use of %d",
		e.Requested, e.InUse, e.Capacity)
}

// Device is a simulated GPU. All pipeline batches must fit in its bounded
// memory; all primitive calls execute on the host CPU but meter the bytes
// and operations the modeled card would spend.
//
// The device is safe for concurrent use: multiple pipeline workers may
// hold batch allocations simultaneously, and the capacity bound is what
// gates their concurrency (AllocWait blocks until enough memory is free,
// exactly as a CUDA allocator would backpressure concurrent streams).
type Device struct {
	spec  Spec
	meter *costmodel.Meter
	mem   stats.MemTracker

	mu      sync.Mutex
	freed   *sync.Cond // signaled whenever memory is released
	inUse   int64
	workers int
	hooks   Hooks
}

// NewDevice creates a device of the given spec. If meter is nil a private
// meter is created.
func NewDevice(spec Spec, meter *costmodel.Meter) *Device {
	if meter == nil {
		meter = costmodel.NewMeter()
	}
	return &Device{spec: spec, meter: meter, workers: runtime.GOMAXPROCS(0)}
}

// SetHooks installs the event hooks. It must be called before the device
// is shared between goroutines (the pipeline installs hooks at
// construction time); h may be nil to disable instrumentation.
func (d *Device) SetHooks(h Hooks) { d.hooks = h }

// Spec returns the modeled card.
func (d *Device) Spec() Spec { return d.spec }

// Meter returns the cost meter this device feeds.
func (d *Device) Meter() *costmodel.Meter { return d.meter }

// MemTracker exposes the device-memory tracker for peak accounting.
func (d *Device) MemTracker() *stats.MemTracker { return &d.mem }

// Allocation is a claim on device memory. Free it when the buffer's
// lifetime ends; allocations are bookkeeping only (the actual data lives
// in ordinary Go slices owned by the caller). The device pointer is
// swapped atomically on Free, so releasing is idempotent even when
// goroutines race on the same allocation.
type Allocation struct {
	dev   atomic.Pointer[Device]
	bytes int64
}

func newAllocation(d *Device, n int64) *Allocation {
	a := &Allocation{bytes: n}
	a.dev.Store(d)
	return a
}

// Alloc claims n bytes of device memory, failing with ErrOutOfMemory when
// the claim would exceed capacity.
func (d *Device) Alloc(n int64) (*Allocation, error) {
	if n < 0 {
		return nil, fmt.Errorf("gpu: negative allocation %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inUse+n > d.spec.MemBytes {
		return nil, ErrOutOfMemory{Requested: n, InUse: d.inUse, Capacity: d.spec.MemBytes}
	}
	d.inUse += n
	d.mem.Add(n)
	return newAllocation(d, n), nil
}

// AllocWait claims n bytes of device memory, blocking until concurrent
// holders free enough capacity or ctx is cancelled. It returns
// ErrOutOfMemory only when the request can never be satisfied (n exceeds
// the device capacity outright), and ctx.Err() when cancelled — waiters
// never stay parked on the allocator after cancellation, which is what
// lets pipeline worker pools drain cleanly. Callers must not hold another
// allocation while waiting, or concurrent waiters can deadlock; every
// pipeline stage allocates one batch at a time, which guarantees progress.
func (d *Device) AllocWait(ctx context.Context, n int64) (*Allocation, error) {
	if n < 0 {
		return nil, fmt.Errorf("gpu: negative allocation %d", n)
	}
	if n > d.spec.MemBytes {
		d.mu.Lock()
		inUse := d.inUse
		d.mu.Unlock()
		return nil, ErrOutOfMemory{Requested: n, InUse: inUse, Capacity: d.spec.MemBytes}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.freed == nil {
		d.freed = sync.NewCond(&d.mu)
	}
	// Wake every waiter when ctx fires so each can observe the
	// cancellation; sync.Cond cannot select on a channel directly.
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.freed.Broadcast()
		d.mu.Unlock()
	})
	defer stop()
	var waitStart time.Time
	for d.inUse+n > d.spec.MemBytes {
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		if err := ctx.Err(); err != nil {
			d.mu.Unlock()
			return nil, err
		}
		d.freed.Wait()
	}
	d.inUse += n
	// Record the claim in the peak tracker before dropping the lock, the
	// same ordering Alloc and Free use: a grant that published inUse but
	// deferred mem.Add could interleave with a concurrent Free's
	// mem.Release and record a stale peak.
	d.mem.Add(n)
	d.mu.Unlock()
	if h := d.hooks; h != nil && !waitStart.IsZero() {
		h.AllocWaited(n, waitStart, time.Since(waitStart))
	}
	return newAllocation(d, n), nil
}

// MustAlloc is Alloc that panics on failure; for callers that have already
// sized their batches against Capacity.
func (d *Device) MustAlloc(n int64) *Allocation {
	a, err := d.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Free releases the allocation and wakes any AllocWait callers. Freeing
// is idempotent under concurrency: the device pointer is claimed with an
// atomic swap, so exactly one caller releases the bytes no matter how
// many goroutines race Free on the same allocation.
func (a *Allocation) Free() {
	if a == nil {
		return
	}
	dev := a.dev.Swap(nil)
	if dev == nil {
		return
	}
	dev.mu.Lock()
	dev.inUse -= a.bytes
	dev.mem.Release(a.bytes)
	if dev.freed != nil {
		dev.freed.Broadcast()
	}
	dev.mu.Unlock()
}

// Bytes returns the allocation size.
func (a *Allocation) Bytes() int64 { return a.bytes }

// InUse returns the currently allocated device memory.
func (d *Device) InUse() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inUse
}

// Available returns the device memory not currently claimed. A scheduler
// leasing job-sized claims off a shared device (internal/serve) reads it
// for admission metrics; it is advisory — AllocWait is the authoritative,
// blocking admission path.
func (d *Device) Available() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spec.MemBytes - d.inUse
}

// Capacity returns the device memory capacity in bytes.
func (d *Device) Capacity() int64 { return d.spec.MemBytes }

// CopyToDevice meters a host-to-device transfer of n bytes.
func (d *Device) CopyToDevice(n int64) { d.meter.AddPCIe(n) }

// CopyFromDevice meters a device-to-host transfer of n bytes.
func (d *Device) CopyFromDevice(n int64) { d.meter.AddPCIe(n) }

// ChargeKernel meters a custom kernel that moves memBytes through device
// memory and performs ops scalar operations; used by kernels implemented
// outside this package (e.g. the fingerprint scan).
func (d *Device) ChargeKernel(memBytes, ops int64) {
	d.meter.AddDeviceMem(memBytes)
	d.meter.AddDeviceOps(ops)
	if h := d.hooks; h != nil {
		h.KernelCharge(memBytes, ops)
	}
}

// LaunchBlocks emulates a grid launch of numBlocks thread blocks, running
// kernel(block) for each. Blocks are distributed over host worker
// goroutines; a block runs on one goroutine, so a kernel whose device
// form is a lock-step scan (the fingerprint kernels' Hillis-Steele steps)
// may compute the same values sequentially and charge the steps.
func (d *Device) LaunchBlocks(numBlocks int, kernel func(block int)) {
	if numBlocks <= 0 {
		return
	}
	if h := d.hooks; h != nil {
		start := time.Now()
		defer func() { h.KernelLaunch(numBlocks, start, time.Since(start)) }()
	}
	workers := d.workers
	if workers > numBlocks {
		workers = numBlocks
	}
	if workers <= 1 {
		for b := 0; b < numBlocks; b++ {
			kernel(b)
		}
		return
	}
	// Workers claim block indices from a shared counter; the caller is one
	// of them, so a launch of small blocks costs an atomic add per block,
	// not a channel handoff.
	var next atomic.Int64
	work := func() {
		for b := int(next.Add(1)) - 1; b < numBlocks; b = int(next.Add(1)) - 1 {
			kernel(b)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
