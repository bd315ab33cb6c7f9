package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
)

// testFleet returns a fleet with one card per capacity.
func testFleet(capacities ...int64) *gpu.Fleet {
	specs := make([]gpu.Spec, len(capacities))
	for i, c := range capacities {
		specs[i] = gpu.Spec{Name: "testcard", MemBytes: c}
	}
	f, err := gpu.NewFleet(specs)
	if err != nil {
		panic(err)
	}
	return f
}

// testJob returns a submittable job with the given demand.
func testJob(id string, demand int64) *Job {
	return NewJob(Record{
		ID:                id,
		State:             StateSubmitted,
		DeviceDemandBytes: demand,
		SubmittedAt:       time.Now().UTC(),
	})
}

// waitState polls until the job reaches the wanted state or the deadline
// passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.Record().ID, j.State(), want)
}

func TestSchedulerQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 16)
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(1 << 20),
		QueueCap:      2,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			started <- j.Record().ID
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		Obs: obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	// First job occupies the single run slot; wait until it is actually
	// running so it no longer counts against the queue bound.
	if err := s.Submit(testJob("run", 1)); err != nil {
		t.Fatal(err)
	}
	<-started

	// Two more fill the queue; the next must bounce.
	if err := s.Submit(testJob("q1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(testJob("q2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(testJob("bounced", 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fourth submit = %v, want ErrQueueFull", err)
	}
	// The bounced job must not linger in listings.
	if _, ok := s.Get("bounced"); ok {
		t.Error("rejected job still registered")
	}
	if got := len(s.Jobs()); got != 3 {
		t.Errorf("Jobs() = %d entries, want 3", got)
	}

	// Oversized demand is rejected up front, not queued.
	if err := s.Submit(testJob("huge", 2<<20)); err == nil {
		t.Error("oversized job admitted")
	}

	close(release)
}

func TestSchedulerFIFOOrder(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	var order []string
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(1 << 20),
		QueueCap:      n,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			mu.Lock()
			order = append(order, j.Record().ID)
			mu.Unlock()
			return nil
		},
		Obs: obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}

	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = testJob(fmt.Sprintf("j%02d", i), 1)
		if err := s.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		waitState(t, j, StateSucceeded)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range order {
		if want := fmt.Sprintf("j%02d", i); id != want {
			t.Fatalf("execution order %v: position %d is %s, want %s", order, i, id, want)
		}
	}
}

// TestSchedulerDeviceAdmission floods the scheduler with jobs whose
// demands only fit two-at-a-time on the device and asserts the leases
// never oversubscribe it, even with ample concurrency slots. Run with
// -race to check the accounting end to end.
func TestSchedulerDeviceAdmission(t *testing.T) {
	const (
		capacity = 1000
		demand   = 400 // two fit, three do not
		n        = 12
	)
	fleet := testFleet(capacity)
	dev := fleet.Device(0)
	var inFlight, peak atomic.Int64
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         fleet,
		QueueCap:      n,
		MaxConcurrent: n, // device memory is the only binding constraint
		Run: func(ctx context.Context, j *Job) error {
			cur := inFlight.Add(demand)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			if used := dev.InUse(); used > dev.Capacity() {
				t.Errorf("device oversubscribed: InUse=%d capacity=%d", used, dev.Capacity())
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-demand)
			return nil
		},
		Obs: obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}

	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = testJob(fmt.Sprintf("j%02d", i), demand)
		if err := s.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		waitState(t, j, StateSucceeded)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > capacity {
		t.Errorf("concurrent demand peaked at %d, capacity %d", p, capacity)
	}
	if p := peak.Load(); p < 2*demand {
		t.Logf("note: peak concurrent demand %d never reached 2 jobs; timing, not a failure", p)
	}
	if used := dev.InUse(); used != 0 {
		t.Errorf("device still holds %d bytes after drain", used)
	}
}

func TestSchedulerCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	reg := obs.NewRegistry()
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(1 << 20),
		QueueCap:      4,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			started <- j.Record().ID
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		Obs: obs.New(nil, nil, reg),
	})
	if err != nil {
		t.Fatal(err)
	}

	blocker := testJob("blocker", 1)
	queued := testJob("queued", 1)
	if err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Submit(queued); err != nil {
		t.Fatal(err)
	}

	rec, err := s.Cancel("queued")
	if err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if rec.State != StateCanceled {
		t.Fatalf("cancel returned state %s, want canceled", rec.State)
	}
	// Cancelling again reports the terminal state.
	if _, err := s.Cancel("queued"); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("second cancel = %v, want ErrJobTerminal", err)
	}

	close(release)
	waitState(t, blocker, StateSucceeded)
	// The canceled job must never have started.
	select {
	case id := <-started:
		t.Fatalf("job %s started after blocker; canceled job ran", id)
	default:
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["serve.jobs_canceled"]; got != 1 {
		t.Errorf("serve.jobs_canceled = %d, want 1", got)
	}
}

func TestSchedulerCancelWhileRunning(t *testing.T) {
	started := make(chan struct{})
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(1 << 20),
		QueueCap:      4,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		},
		Obs: obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}

	j := testJob("victim", 1)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel("victim"); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCanceled)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerCancelDuringPreemptRequeue cancels a preempted batch job
// from the transition hook of its requeue, after the record says queued
// and before the job re-enters a lane. The cancel must stand: the job ends
// canceled, never runs again, and leaves no lane entry behind.
func TestSchedulerCancelDuringPreemptRequeue(t *testing.T) {
	var s *Scheduler
	var once sync.Once
	var bgAttempts atomic.Int32
	bgStarted := make(chan struct{})
	reg := obs.NewRegistry()
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(100),
		QueueCap:      8,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			if j.Record().ID != "bg" {
				return nil
			}
			if bgAttempts.Add(1) == 1 {
				close(bgStarted)
			}
			select {
			case <-j.Preempted():
				return ErrPreempted
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		OnTransition: func(j *Job) {
			if rec := j.Record(); rec.ID == "bg" && rec.State == StateQueued && rec.Preemptions == 1 {
				once.Do(func() {
					if _, err := s.Cancel("bg"); err != nil {
						t.Errorf("cancel from the requeue hook: %v", err)
					}
				})
			}
		},
		Obs: obs.New(nil, nil, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	bg := testJob("bg", 100)
	if err := s.Submit(bg); err != nil {
		t.Fatal(err)
	}
	<-bgStarted
	fg := testJobP("fg", 100, Params{Priority: PriorityInteractive})
	if err := s.Submit(fg); err != nil {
		t.Fatal(err)
	}
	waitState(t, fg, StateSucceeded)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := bg.State(); got != StateCanceled {
		t.Errorf("bg state = %s, want canceled", got)
	}
	if got := bgAttempts.Load(); got != 1 {
		t.Errorf("bg ran %d attempts, want 1", got)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Errorf("queue depth %d, want 0", got)
	}
	if got := reg.Snapshot().Counters["serve.jobs_canceled"]; got != 1 {
		t.Errorf("serve.jobs_canceled = %d, want 1", got)
	}
}

// TestSchedulerDrainRequeues checks graceful shutdown: a running job goes
// back to queued (resumable), and submissions during the drain bounce.
func TestSchedulerDrainRequeues(t *testing.T) {
	started := make(chan struct{})
	var transitions sync.Map
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(1 << 20),
		QueueCap:      4,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		},
		OnTransition: func(j *Job) {
			rec := j.Record()
			transitions.Store(rec.ID+"/"+string(rec.State), true)
		},
		Obs: obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}

	j := testJob("drained", 1)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != StateQueued {
		t.Fatalf("drained job state = %s, want queued", got)
	}
	if _, ok := transitions.Load("drained/queued"); !ok {
		t.Error("requeue transition never reached the persistence hook")
	}
	if err := s.Submit(testJob("late", 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
}

// TestSchedulerStartsNoGoroutine: placement runs on the goroutine of the
// event that triggers it, so a scheduler owns no goroutine of its own,
// and Drain and Kill leave none of the run goroutines behind.
func TestSchedulerStartsNoGoroutine(t *testing.T) {
	for _, stop := range []string{"drain", "kill"} {
		base := runtime.NumGoroutine()
		rel := newReleaseMap("held")
		s, err := NewScheduler(SchedulerConfig{
			Fleet:         testFleet(100, 100),
			QueueCap:      8,
			MaxConcurrent: 2,
			Run:           rel.run,
			Obs:           obs.New(nil, nil, obs.NewRegistry()),
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: NewScheduler left %d goroutines running, baseline %d", stop, n, base)
		}
		held := testJob("held", 50)
		if err := s.Submit(held); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			j := testJob(fmt.Sprintf("j%d", i), 50)
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
			waitState(t, j, StateSucceeded)
		}
		waitState(t, held, StateRunning)
		if stop == "drain" {
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		} else {
			s.Kill()
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("after %s: %d goroutines, baseline %d", stop, n, base)
		}
	}
}
