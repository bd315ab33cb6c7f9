package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
)

// ErrQueueFull is returned by Submit when the bounded run queue cannot
// take another job; HTTP maps it to 429 with a Retry-After header.
var ErrQueueFull = errors.New("serve: run queue is full")

// ErrDraining is returned by Submit once a graceful shutdown has begun.
var ErrDraining = errors.New("serve: server is draining")

// ErrJobTerminal is returned by Cancel for jobs already in a terminal
// state.
var ErrJobTerminal = errors.New("serve: job is already in a terminal state")

// ErrPreempted is returned by a run function that drained at a stage
// commit because the scheduler asked for the device back (Job.Preempted).
// The scheduler requeues the job instead of failing it; the committed
// stages resume on the next attempt.
var ErrPreempted = errors.New("serve: job preempted at stage commit")

// RunFunc executes one job to completion under ctx. It returns nil on
// success; a ctx cancellation error means the job was interrupted (by
// user cancel, drain, or kill) with its committed stages resumable, and
// ErrPreempted means the job drained voluntarily at a stage commit after
// a preemption request.
type RunFunc func(ctx context.Context, j *Job) error

// SchedulerConfig parameterizes a Scheduler.
type SchedulerConfig struct {
	// Fleet is the set of simulated cards jobs lease device memory from.
	// Every job is placed on (and leases its demand from) specific fleet
	// devices before it may run.
	Fleet *gpu.Fleet
	// QueueCap bounds how many jobs may sit in the fleet queue; submissions
	// beyond it are rejected with ErrQueueFull.
	QueueCap int
	// MaxConcurrent bounds how many jobs run at once per device,
	// independent of device capacity (a host-side CPU/IO limit).
	MaxConcurrent int
	// Run executes one job; the server injects the real pipeline, tests
	// inject controllable stand-ins.
	Run RunFunc
	// OnTransition fires after every persistent state change, outside the
	// scheduler and job locks; the server persists the record (and cleans
	// terminal workspaces) here. On a preemption requeue it fires before
	// the job re-enters the lanes, so the server can sweep scratch state
	// while the job is provably not running. May be nil.
	OnTransition func(j *Job)
	// Obs carries the scheduler's logger and metrics registry; nil
	// disables both.
	Obs *obs.Observer
	// Recorder is the flight recorder lifecycle events flow through; nil
	// gets a recorder of its own with the default capacity.
	Recorder *FlightRecorder
}

// Scheduler is the fleet-wide admission-controlled job runner. Every
// placement decision is made by one pass over the fleet queue and the
// lease ledger under the scheduler lock (placeLocked), run after each
// event that changes them: an enqueue or requeue, a lease release, and a
// cancel that drops a queued job. The fleet has one queue of two priority
// lanes (interactive before batch, FIFO within a lane), and each claim
// goes to the least-leased device that can start the job now. A claim
// reserves its device bytes in the ledger before the lock is released,
// so the gpu.Device allocations that follow can never fail and
// multi-device (sharded) leases can never deadlock.
//
// When an interactive job fits a device's capacity but not its free
// bytes, the pass asks running batch jobs on that device to drain at
// their next stage commit (preemption); the drained job requeues with its
// committed stages resumable and the interactive job takes the freed
// lease. No scheduler goroutine runs between events: each claimed attempt
// runs on its own goroutine, which hands its lease back when it returns.
type Scheduler struct {
	cfg    SchedulerConfig
	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup // claimed attempts
	killed atomic.Bool
	drain  atomic.Bool

	// mu guards the fleet queue, the per-device lease ledgers and
	// concurrency slots, the claimed attempts and the job index.
	mu          sync.Mutex
	lanes       [laneCount][]waiting // the fleet queue, highest priority first
	leased      []int64              // per device: bytes claimed by admitted jobs
	slots       []int                // per device: concurrency slots in use
	runningByID map[string]*runRef   // claimed attempts, for preemption targeting
	jobs        map[string]*Job
	order       []string // registration order, for listing

	queueDepth   *obs.Gauge
	runningG     *obs.Gauge
	devInUse     []*obs.Gauge
	admitted     *obs.Counter
	rejected     *obs.Counter
	succeeded    *obs.Counter
	failed       *obs.Counter
	canceledC    *obs.Counter
	preemptionsC *obs.Counter
	queueWaitMs  *obs.Histogram
}

// laneCount and the lane indices: lane 0 is served strictly before
// lane 1 on every placement decision.
const (
	laneInteractive = 0
	laneBatch       = 1
	laneCount       = 2
)

func laneIndex(priority string) int {
	if priority == PriorityInteractive {
		return laneInteractive
	}
	return laneBatch
}

// waiting is one lane entry: a queued job with the shape the scheduler
// places it by (fixed at submit time) and when its current wait began.
type waiting struct {
	j      *Job
	demand int64 // per-device lease
	shards int
	lane   int
	since  time.Time // when the job entered the lane
}

// runRef is one claimed attempt: made by placeLocked, started outside the
// lock, and released when its run returns.
type runRef struct {
	waiting
	devices   []int // lease targets, one per shard; devices[0] holds the concurrency slot
	started   time.Time
	preemptAt time.Time // when a drain was requested; zero while none is
}

// NewScheduler builds a scheduler. It starts no goroutine: placement runs
// on the goroutine of whichever event triggers it.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.Fleet == nil || cfg.Fleet.Size() == 0 {
		return nil, fmt.Errorf("serve: scheduler needs a device fleet")
	}
	if cfg.Run == nil {
		return nil, fmt.Errorf("serve: scheduler needs a run function")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.Recorder == nil {
		cfg.Recorder = NewFlightRecorder(0)
	}
	ctx, stop := context.WithCancel(context.Background())
	m := cfg.Obs.Metrics()
	n := cfg.Fleet.Size()
	s := &Scheduler{
		cfg:          cfg,
		ctx:          ctx,
		stop:         stop,
		leased:       make([]int64, n),
		slots:        make([]int, n),
		runningByID:  make(map[string]*runRef),
		jobs:         make(map[string]*Job),
		queueDepth:   m.Gauge("serve.queue_depth"),
		runningG:     m.Gauge("serve.jobs_running"),
		devInUse:     make([]*obs.Gauge, n),
		admitted:     m.Counter("serve.jobs_admitted"),
		rejected:     m.Counter("serve.jobs_rejected"),
		succeeded:    m.Counter("serve.jobs_succeeded"),
		failed:       m.Counter("serve.jobs_failed"),
		canceledC:    m.Counter("serve.jobs_canceled"),
		preemptionsC: m.Counter("fleet.preemptions"),
		queueWaitMs:  m.Histogram("serve.queue_wait_ms", 1, 10, 100, 1e3, 10e3, 60e3),
	}
	for d := range s.devInUse {
		s.devInUse[d] = m.Gauge(fmt.Sprintf("fleet.device_inuse_bytes{device=%q}", fmt.Sprint(d)))
	}
	return s, nil
}

// Fleet exposes the device inventory.
func (s *Scheduler) Fleet() *gpu.Fleet { return s.cfg.Fleet }

// Register adds a job to the scheduler's index without queueing it; used
// for terminal jobs reloaded at startup so they stay listable.
func (s *Scheduler) Register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(j)
}

// registerLocked indexes the job (once).
func (s *Scheduler) registerLocked(j *Job) {
	id := j.ID()
	if _, ok := s.jobs[id]; ok {
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
}

// placeable reports whether the fleet can ever run a job of this shape:
// an unsharded job must fit on some device; a sharded job needs Shards
// distinct devices that each fit the per-shard demand.
func (s *Scheduler) placeable(rec Record) error {
	demand := rec.DeviceDemandBytes
	if demand <= 0 {
		return fmt.Errorf("serve: job %s declares no device demand", rec.ID)
	}
	shards := rec.Params.ShardCount()
	if fit := s.cfg.Fleet.FitCount(demand); fit < shards {
		return fmt.Errorf("serve: job %s needs %d device(s) with %d bytes free, fleet has %d that large",
			rec.ID, shards, demand, fit)
	}
	return nil
}

// Submit queues a new job, honouring the queue bound. The job must carry
// a positive DeviceDemandBytes placeable on the fleet.
func (s *Scheduler) Submit(j *Job) error {
	if s.drain.Load() {
		return ErrDraining
	}
	if err := s.placeable(j.Record()); err != nil {
		return err
	}
	if err := s.admit(j, false); err != nil {
		s.rejected.Add(1)
		return err
	}
	s.admitted.Add(1)
	return nil
}

// Recover force-queues a job reloaded from disk at startup, bypassing the
// queue bound — recovered jobs were admitted by a previous server
// incarnation and must not be dropped.
func (s *Scheduler) Recover(j *Job) { s.admit(j, true) }

// admit registers the job and queues it; the queue bound is checked in
// the same critical section, so a rejected job is never registered.
// force bypasses the bound.
func (s *Scheduler) admit(j *Job, force bool) error {
	s.mu.Lock()
	if !force && s.queuedLocked() >= s.cfg.QueueCap {
		s.mu.Unlock()
		return ErrQueueFull
	}
	s.registerLocked(j)
	j.Update(func(r *Record) { r.State = StateQueued })
	runs := s.enqueueLocked(j, false)
	s.mu.Unlock()
	s.notify(j)
	s.start(runs)
	return nil
}

// enqueueLocked puts the job in its lane of the fleet queue — at the
// tail for an arrival, at the head for a preempted job (front), so it
// resumes as soon as capacity frees without losing its place to later
// arrivals — and runs the placement pass. It returns the attempts the pass
// claimed. The caller has already set the job queued; a job cancelled
// since then stays cancelled and out of the queue.
func (s *Scheduler) enqueueLocked(j *Job, front bool) []*runRef {
	rec := j.Record()
	if rec.State != StateQueued {
		return nil
	}
	w := waiting{j: j, demand: rec.DeviceDemandBytes, shards: rec.Params.ShardCount(),
		lane: laneIndex(rec.Params.Lane()), since: time.Now()}
	j.Update(func(r *Record) { r.Devices = nil })
	q := &s.lanes[w.lane]
	if front {
		*q = append([]waiting{w}, *q...)
		s.cfg.Recorder.Emit(j, EventRequeue, map[string]any{"reason": "preempt"})
	} else {
		*q = append(*q, w)
		s.cfg.Recorder.Emit(j, EventEnqueue, map[string]any{
			"lane": rec.Params.Lane(), "demandBytes": w.demand})
	}
	return s.placeLocked()
}

// queuedLocked returns how many jobs wait in the fleet queue.
func (s *Scheduler) queuedLocked() int {
	return len(s.lanes[laneInteractive]) + len(s.lanes[laneBatch])
}

// freeLocked returns device d's unleased bytes.
func (s *Scheduler) freeLocked(d int) int64 {
	return s.cfg.Fleet.Device(d).Capacity() - s.leased[d]
}

// placeLocked is the scheduler's one placement pass. It claims queued
// jobs, one at a time, until no queued job can start; then every
// interactive job still queued may preempt batch work. The claims are
// returned for the caller to start once it has released the lock.
func (s *Scheduler) placeLocked() []*runRef {
	if s.ctx.Err() != nil {
		return nil
	}
	var claims []*runRef
	for ref := s.claimLocked(); ref != nil; ref = s.claimLocked() {
		claims = append(claims, ref)
	}
	for _, w := range s.lanes[laneInteractive] {
		if w.j.State() == StateQueued {
			s.preemptScanLocked(w)
		}
	}
	s.queueDepth.Set(int64(s.queuedLocked()))
	return claims
}

// claimLocked claims the first job in the fleet queue that can start now:
// interactive lane first, FIFO within a lane, skipping jobs that no set of
// devices can host right now, and dropping jobs cancelled while queued.
// The claim reserves the leases and the home device's concurrency slot
// before it returns.
func (s *Scheduler) claimLocked() *runRef {
	for lane := range s.lanes {
		q := s.lanes[lane]
		for i := 0; i < len(q); i++ {
			w := q[i]
			if w.j.State() != StateQueued {
				q = slices.Delete(q, i, i+1)
				s.lanes[lane] = q
				i--
				continue
			}
			devices := s.placementLocked(w.demand, w.shards)
			if devices == nil {
				continue
			}
			s.lanes[lane] = slices.Delete(q, i, i+1)
			for _, dev := range devices {
				s.leased[dev] += w.demand
				s.devInUse[dev].Set(s.leased[dev])
			}
			s.slots[devices[0]]++
			ref := &runRef{waiting: w, devices: devices, started: time.Now()}
			s.runningByID[w.j.ID()] = ref
			s.runningG.Set(int64(len(s.runningByID)))
			s.wg.Add(1) // under the lock, so Drain's Wait sees every claim
			return ref
		}
	}
	return nil
}

// placementLocked picks the devices a claim leases, or nil when the job
// cannot start right now. Its home is the device with a free concurrency
// slot, the free bytes and the fewest leased bytes (lowest index on ties);
// a sharded job adds the shards-1 freest other devices with the bytes,
// which lease bytes but no slot.
func (s *Scheduler) placementLocked(demand int64, shards int) []int {
	home := -1
	var others []int
	for d := range s.leased {
		if s.freeLocked(d) < demand {
			continue
		}
		others = append(others, d)
		if s.slots[d] < s.cfg.MaxConcurrent && (home == -1 || s.leased[d] < s.leased[home]) {
			home = d
		}
	}
	if home == -1 || len(others) < shards {
		return nil
	}
	others = slices.DeleteFunc(others, func(d int) bool { return d == home })
	sort.SliceStable(others, func(i, k int) bool { return s.freeLocked(others[i]) > s.freeLocked(others[k]) })
	return append([]int{home}, others[:shards-1]...)
}

// preemptScanLocked handles a queued interactive job that no set of
// devices can host right now although the fleet could by capacity: on
// each device it needs that is large enough but short of free bytes, it
// asks batch work to drain.
func (s *Scheduler) preemptScanLocked(w waiting) {
	need := w.shards
	for d := range s.leased {
		if s.freeLocked(d) >= w.demand {
			need--
		}
	}
	for d := 0; d < len(s.leased) && need > 0; d++ {
		if s.cfg.Fleet.Device(d).Capacity() < w.demand || s.freeLocked(d) >= w.demand {
			continue
		}
		s.preemptForLocked(d, w.demand)
		need--
	}
}

// preemptForLocked asks enough running batch jobs on device d to drain at
// their next stage commit to eventually free `need` bytes for a blocked
// interactive job. Youngest batch jobs drain first (they have the least
// committed work to redo). Interactive jobs are never preempted. Bytes
// held by attempts already asked to drain count as free: they are on
// their way back, and the pass runs again on every event while a drain is
// pending.
func (s *Scheduler) preemptForLocked(d int, need int64) {
	avail := s.freeLocked(d)
	var targets []*runRef
	for _, ref := range s.runningByID {
		switch {
		case !slices.Contains(ref.devices, d):
		case !ref.preemptAt.IsZero():
			avail += ref.demand
		case ref.lane == laneBatch:
			targets = append(targets, ref)
		}
	}
	sort.Slice(targets, func(i, k int) bool { return targets[i].started.After(targets[k].started) })
	for _, ref := range targets {
		if avail >= need {
			return
		}
		s.requestPreemptLocked(ref, map[string]any{"device": d, "needBytes": need})
		avail += ref.demand
	}
}

// requestPreemptLocked asks a claimed attempt to drain at its next stage
// commit, once per attempt.
func (s *Scheduler) requestPreemptLocked(ref *runRef, attrs map[string]any) {
	if !ref.preemptAt.IsZero() {
		return
	}
	ref.preemptAt = time.Now()
	ref.j.requestPreempt()
	s.preemptionsC.Add(1)
	s.cfg.Recorder.Emit(ref.j, EventPreemptRequest, attrs)
}

// Get returns the job with the given ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in registration order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueueDepth returns how many jobs wait in the fleet queue.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// Cancel requests cancellation of a job. A queued job transitions to
// canceled immediately; a running job has its context cancelled and
// reaches canceled when the pipeline unwinds. Cancelling a terminal job
// returns ErrJobTerminal.
func (s *Scheduler) Cancel(id string) (Record, error) {
	j, ok := s.Get(id)
	if !ok {
		return Record{}, fmt.Errorf("serve: unknown job %s", id)
	}
	j.mu.Lock()
	switch {
	case j.rec.State.Terminal():
		rec := j.rec.clone()
		j.mu.Unlock()
		return rec, ErrJobTerminal
	case j.rec.State == StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		rec := j.rec.clone()
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return rec, nil
	default: // submitted or queued (possibly claimed but not yet started)
		j.cancelRequested = true
		now := time.Now()
		j.rec.State = StateCanceled
		j.rec.FinishedAt = &now
		cancel := j.cancel
		rec := j.rec.clone()
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		s.dropQueued(j)
		s.canceledC.Add(1)
		s.cfg.Recorder.Emit(j, EventTerminal, map[string]any{
			"outcome": string(StateCanceled), "whileQueued": true})
		s.notify(j)
		return rec, nil
	}
}

// Preempt asks a running job to drain at its next stage commit and hand
// its device leases back, exactly as a higher-priority placement would.
// The job requeues with its committed stages resumable. Exposed for
// operators and tests; scheduling-policy preemptions use the same path.
func (s *Scheduler) Preempt(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.runningByID[id]
	if !ok {
		return fmt.Errorf("serve: job %s is not running", id)
	}
	s.requestPreemptLocked(ref, map[string]any{"operator": true})
	return nil
}

// dropQueued removes a job from the fleet queue and places what that
// changes (no-op when it is not queued, e.g. already claimed).
func (s *Scheduler) dropQueued(j *Job) {
	s.mu.Lock()
	var runs []*runRef
	if s.removeQueuedLocked(j) {
		runs = s.placeLocked()
	}
	s.mu.Unlock()
	s.start(runs)
}

// removeQueuedLocked takes the job out of the lane it waits in, reporting
// whether it was there.
func (s *Scheduler) removeQueuedLocked(j *Job) bool {
	for lane, q := range s.lanes {
		if i := slices.IndexFunc(q, func(w waiting) bool { return w.j == j }); i >= 0 {
			s.lanes[lane] = slices.Delete(q, i, i+1)
			return true
		}
	}
	return false
}

// Drain begins a graceful shutdown: new submissions are rejected, no job
// is placed any more, running jobs are cancelled (their committed stages
// stay resumable) and persisted back to queued, and queued jobs simply
// stay queued on disk. Returns when every job goroutine has unwound or
// ctx expires.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.shutdown()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// Kill simulates a crash for tests: every context is cancelled and NO
// record is persisted, leaving the on-disk state exactly as a SIGKILL
// would — running jobs still say "running". Waits for goroutines to
// unwind so tests can immediately restart a server on the same root.
func (s *Scheduler) Kill() {
	s.killed.Store(true)
	s.shutdown()
	s.wg.Wait()
}

// shutdown rejects new submissions and cancels the scheduler context under
// the lock, so no attempt is claimed after it returns.
func (s *Scheduler) shutdown() {
	s.drain.Store(true)
	s.mu.Lock()
	s.stop()
	s.mu.Unlock()
}

// start runs each claimed attempt on its own goroutine; called without
// the scheduler lock.
func (s *Scheduler) start(refs []*runRef) {
	for _, ref := range refs {
		go s.run(ref)
	}
}

// run takes the device allocations the claim reserved and executes the
// attempt, then hands its leases and concurrency slot back — placing
// whatever they free — and settles the outcome. An attempt whose job was
// cancelled between the lane pop and the lease grant is released without
// running, and a RunFunc that panics fails its job alone (call).
func (s *Scheduler) run(ref *runRef) {
	defer s.wg.Done()
	j := ref.j
	leases := make([]*gpu.Allocation, len(ref.devices))
	for i, dev := range ref.devices {
		a, err := s.cfg.Fleet.Device(dev).Alloc(ref.demand)
		if err != nil {
			// Unreachable by construction: the claim reserved the bytes
			// under the scheduler lock and nothing else allocates on fleet
			// devices.
			panic(fmt.Sprintf("serve: claimed lease failed on device %d: %v", dev, err))
		}
		leases[i] = a
	}
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	canceled := j.cancelRequested
	j.mu.Unlock()
	if canceled {
		s.start(s.release(ref, leases))
		return
	}
	s.queueWaitMs.Observe(float64(ref.started.Sub(ref.since).Milliseconds()))
	s.recordClaim(ref)
	started := ref.started
	j.Update(func(r *Record) {
		r.State = StateRunning
		r.StartedAt = &started
		r.Attempts++
		r.Error = ""
		r.Devices = append([]int(nil), ref.devices...)
	})
	s.notify(j)
	err := s.call(ctx, j)
	s.start(s.release(ref, leases))
	s.finish(ref, err)
}

// panicError is the outcome of an attempt whose RunFunc panicked: the
// panic value and the stack of the goroutine that raised it.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// call runs the job's RunFunc and turns a panic on its goroutine into the
// attempt's error, so one bad job fails instead of taking the process down.
func (s *Scheduler) call(ctx context.Context, j *Job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{value: v, stack: debug.Stack()}
		}
	}()
	return s.cfg.Run(ctx, j)
}

// release returns an attempt's allocations, ledger bytes and concurrency
// slot, and runs the placement pass over what they free.
func (s *Scheduler) release(ref *runRef, leases []*gpu.Allocation) []*runRef {
	for _, a := range leases {
		a.Free()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, dev := range ref.devices {
		s.leased[dev] -= ref.demand
		s.devInUse[dev].Set(s.leased[dev])
	}
	s.slots[ref.devices[0]]--
	delete(s.runningByID, ref.j.ID())
	s.runningG.Set(int64(len(s.runningByID)))
	return s.placeLocked()
}

// recordClaim emits the claim (and shard-place) events of one started
// claim; waitMs is the lane time it closes, the preempted gap when the
// job's last event was a preempt requeue.
func (s *Scheduler) recordClaim(ref *runRef) {
	rec := ref.j.Record()
	wait := ref.started.Sub(ref.since)
	s.cfg.Recorder.Emit(ref.j, EventClaim, map[string]any{
		"devices": append([]int(nil), ref.devices...), "waitMs": wait.Milliseconds(),
		"lane": rec.Params.Lane(), "attempt": rec.Attempts + 1})
	if len(ref.devices) > 1 {
		s.cfg.Recorder.Emit(ref.j, EventShardPlace, map[string]any{
			"devices": append([]int(nil), ref.devices...)})
	}
}

// finish settles a released attempt's outcome into the job record.
func (s *Scheduler) finish(ref *runRef, err error) {
	j := ref.j
	canceledByUser := j.CancelRequested()
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	now := time.Now()
	rec := j.Record()
	switch {
	case err == nil:
		j.Update(func(r *Record) {
			r.State = StateSucceeded
			r.FinishedAt = &now
			if r.Result != nil {
				r.Result.QueueWaitMs = float64(ref.started.Sub(ref.since).Milliseconds())
			}
		})
		s.succeeded.Add(1)
		s.cfg.Recorder.Emit(j, EventTerminal, map[string]any{
			"outcome": string(StateSucceeded), "attempts": rec.Attempts})
		s.notify(j)
	case errors.Is(err, ErrPreempted) && !canceledByUser:
		// The job drained at a stage commit to hand its leases to a
		// higher-priority claim: back to the head of the queue, committed
		// stages resumable. The transition notifies (and the server sweeps
		// scratch) BEFORE the job re-enters the lanes, so no new attempt
		// can be racing the cleanup. preemptAt is final: release removed
		// the attempt under the lock.
		var drainLatency time.Duration
		if !ref.preemptAt.IsZero() {
			drainLatency = now.Sub(ref.preemptAt)
		}
		s.cfg.Recorder.Emit(j, EventDrain, map[string]any{
			"reason": "preempt", "drainMs": drainLatency.Milliseconds()})
		j.resetPreempt()
		j.Update(func(r *Record) {
			r.State = StateQueued
			r.Preemptions++
		})
		s.notify(j)
		s.mu.Lock()
		runs := s.enqueueLocked(j, true)
		s.mu.Unlock()
		s.start(runs)
	case canceledByUser && (interrupted || errors.Is(err, ErrPreempted)):
		j.Update(func(r *Record) {
			r.State = StateCanceled
			r.FinishedAt = &now
		})
		s.canceledC.Add(1)
		s.cfg.Recorder.Emit(j, EventTerminal, map[string]any{
			"outcome": string(StateCanceled), "attempts": rec.Attempts})
		s.notify(j)
	case interrupted:
		if s.killed.Load() {
			// Crash simulation: leave the on-disk record saying "running".
			return
		}
		// Drain: the job goes back to queued on disk; the next server
		// start resumes it through the run manifest.
		s.cfg.Recorder.Emit(j, EventDrain, map[string]any{"reason": "shutdown"})
		j.Update(func(r *Record) { r.State = StateQueued })
		s.notify(j)
	default:
		j.Update(func(r *Record) {
			r.State = StateFailed
			r.FinishedAt = &now
			r.Error = err.Error()
		})
		s.failed.Add(1)
		attrs := map[string]any{"outcome": string(StateFailed), "attempts": rec.Attempts, "error": err.Error()}
		if pe := (*panicError)(nil); errors.As(err, &pe) {
			attrs["stack"] = string(pe.stack)
			s.cfg.Obs.Log().Error("job panicked", "job", rec.ID, "err", err, "stack", string(pe.stack))
		}
		s.cfg.Recorder.Emit(j, EventTerminal, attrs)
		s.notify(j)
	}
}

// notify delivers a transition to the server's persistence hook.
func (s *Scheduler) notify(j *Job) {
	if s.killed.Load() {
		return
	}
	if s.cfg.OnTransition != nil {
		s.cfg.OnTransition(j)
	}
}

// DeviceState is one device's admission snapshot for health reporting.
type DeviceState struct {
	Device        int      `json:"device"`
	Card          string   `json:"card"`
	CapacityBytes int64    `json:"capacityBytes"`
	LeasedBytes   int64    `json:"leasedBytes"`
	Running       []string `json:"running,omitempty"`
}

// FleetSnapshot is the scheduler-wide admission state served by /healthz
// and folded into job listings.
type FleetSnapshot struct {
	Devices     []DeviceState `json:"devices"`
	QueueDepth  int           `json:"queueDepth"`
	JobsRunning int           `json:"jobsRunning"`
	Preemptions int64         `json:"preemptions"`
}

// Snapshot reports the fleet's current admission state.
func (s *Scheduler) Snapshot() FleetSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := FleetSnapshot{
		QueueDepth:  s.queuedLocked(),
		JobsRunning: len(s.runningByID),
		Preemptions: s.preemptionsC.Value(),
	}
	for d := 0; d < s.cfg.Fleet.Size(); d++ {
		dev := s.cfg.Fleet.Device(d)
		ds := DeviceState{
			Device:        d,
			Card:          dev.Spec().Name,
			CapacityBytes: dev.Capacity(),
			LeasedBytes:   s.leased[d],
		}
		for id, ref := range s.runningByID {
			if slices.Contains(ref.devices, d) {
				ds.Running = append(ds.Running, id)
			}
		}
		sort.Strings(ds.Running)
		snap.Devices = append(snap.Devices, ds)
	}
	return snap
}
