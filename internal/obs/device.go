package obs

import (
	"time"

	"repro/internal/gpu"
)

// Histogram bounds for device instruments. Wait bounds are seconds; launch
// bounds are thread-block counts.
var (
	allocWaitBounds    = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10}
	launchBlocksBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}
)

// deviceHooks implements gpu.Hooks against an Observer. All instruments
// are resolved once at construction so the per-primitive KernelCharge path
// touches only pre-resolved atomics.
type deviceHooks struct {
	tracer *Tracer
	pid    int64

	launches   *Counter
	launchHist *Histogram
	memBytes   *Counter
	ops        *Counter
	waits      *Counter
	waitHist   *Histogram
	streamOps  *Counter
}

// DeviceHooks builds gpu.Hooks that feed o's tracer and metrics, tagging
// async trace events with the given pid (the owning pipeline or cluster
// node track). Returns nil when o is nil, which gpu treats as disabled.
func DeviceHooks(o *Observer, pid int64) gpu.Hooks {
	if o == nil {
		return nil
	}
	m := o.Metrics()
	return &deviceHooks{
		tracer:     o.Tracer(),
		pid:        pid,
		launches:   m.Counter("gpu.kernel_launches"),
		launchHist: m.Histogram("gpu.launch_blocks", launchBlocksBounds...),
		memBytes:   m.Counter("gpu.kernel_mem_bytes"),
		ops:        m.Counter("gpu.kernel_ops"),
		waits:      m.Counter("gpu.alloc_waits"),
		waitHist:   m.Histogram("gpu.alloc_wait_seconds", allocWaitBounds...),
		streamOps:  m.Counter("gpu.stream_ops"),
	}
}

func (h *deviceHooks) KernelLaunch(blocks int, start time.Time, wall time.Duration) {
	h.launches.Add(1)
	h.launchHist.Observe(float64(blocks))
	h.tracer.Async(h.pid, "kernel", "launch", start, wall,
		map[string]any{"blocks": blocks})
}

func (h *deviceHooks) KernelCharge(memBytes, ops int64) {
	h.memBytes.Add(memBytes)
	h.ops.Add(ops)
}

// StreamOp makes each asynchronously executed stream op an async trace
// span named after its stream, so overlapping stream activity renders as
// overlapping "stream" tracks.
func (h *deviceHooks) StreamOp(stream, op string, start time.Time, wall time.Duration) {
	h.streamOps.Add(1)
	h.tracer.Async(h.pid, "stream", stream+" "+op, start, wall,
		map[string]any{"stream": stream, "op": op})
}

func (h *deviceHooks) AllocWaited(bytes int64, start time.Time, wait time.Duration) {
	h.waits.Add(1)
	h.waitHist.Observe(wait.Seconds())
	h.tracer.Async(h.pid, "allocwait", "alloc wait", start, wait,
		map[string]any{"bytes": bytes})
}
