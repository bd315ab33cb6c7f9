package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// testJobP returns a submittable job with explicit params (lane,
// shards).
func testJobP(id string, demand int64, p Params) *Job {
	j := testJob(id, demand)
	j.Update(func(r *Record) { r.Params = p })
	return j
}

// releaseMap hands tests per-job blocking: a job whose ID has an entry
// blocks until that channel closes; every other job returns immediately.
type releaseMap struct {
	mu sync.Mutex
	ch map[string]chan struct{}
}

func newReleaseMap(ids ...string) *releaseMap {
	m := &releaseMap{ch: make(map[string]chan struct{})}
	for _, id := range ids {
		m.ch[id] = make(chan struct{})
	}
	return m
}

func (m *releaseMap) release(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ch, ok := m.ch[id]; ok {
		close(ch)
		delete(m.ch, id)
	}
}

func (m *releaseMap) run(ctx context.Context, j *Job) error {
	m.mu.Lock()
	ch, ok := m.ch[j.Record().ID]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestSchedulerFreedDeviceTakesQueuedWork pins one blocking job on each
// of two devices, queues four instant jobs, then frees only one device.
// The fleet queue hands all four to the freed card while the other device
// is still busy.
func TestSchedulerFreedDeviceTakesQueuedWork(t *testing.T) {
	rel := newReleaseMap("a", "b")
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(100, 100),
		QueueCap:      16,
		MaxConcurrent: 1,
		Run:           rel.run,
		Obs:           obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	a, b := testJob("a", 100), testJob("b", 100)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateRunning)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	waitState(t, b, StateRunning)

	// Full-card demands force a and b onto distinct devices.
	devA, devB := a.Record().Devices[0], b.Record().Devices[0]
	if devA == devB {
		t.Fatalf("blockers share device %d; leases oversubscribed", devA)
	}

	cs := make([]*Job, 4)
	for i := range cs {
		cs[i] = testJob(fmt.Sprintf("c%d", i), 100)
		if err := s.Submit(cs[i]); err != nil {
			t.Fatal(err)
		}
	}

	rel.release("a")
	for _, c := range cs {
		waitState(t, c, StateSucceeded)
	}
	if got := b.State(); got != StateRunning {
		t.Fatalf("blocker b left running state early: %s", got)
	}
	for _, c := range cs {
		if devs := c.Record().Devices; len(devs) != 1 || devs[0] != devA {
			t.Errorf("job %s ran on %v, want [%d] (the freed device)", c.Record().ID, devs, devA)
		}
	}

	rel.release("b")
	waitState(t, b, StateSucceeded)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerClaimsLeastLeasedDevice pins the claim-time placement rule
// on a homogeneous fleet with two slots per device: two blocking jobs
// submitted back to back run on different devices, because each claim
// goes to the device with the fewest leased bytes — packing both onto
// device 0, which still has a free slot and the bytes, would be wrong.
func TestSchedulerClaimsLeastLeasedDevice(t *testing.T) {
	rel := newReleaseMap("x", "y")
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
	defer s.Kill()

	x, y := testJob("x", 40), testJob("y", 40)
	for _, j := range []*Job{x, y} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, x, StateRunning)
	waitState(t, y, StateRunning)
	dx, dy := x.Record().Devices, y.Record().Devices
	if len(dx) != 1 || len(dy) != 1 || dx[0] != 0 || dy[0] != 1 {
		t.Errorf("blocking jobs ran on %v and %v, want [0] and [1]", dx, dy)
	}

	rel.release("x")
	rel.release("y")
	waitState(t, x, StateSucceeded)
	waitState(t, y, StateSucceeded)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerSurvivesPanickingRun: a RunFunc that panics fails its job
// with the panic value, its terminal event carries the stack, and the
// attempt's lease and slot come back, so the job queued
// behind it on the one device runs and succeeds.
func TestSchedulerSurvivesPanickingRun(t *testing.T) {
	boom := make(chan struct{})
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(100),
		QueueCap:      8,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			if j.ID() == "bad" {
				<-boom
				panic("corrupt partition")
			}
			return nil
		},
		Obs: obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	bad := testJob("bad", 100)
	next := testJob("next", 100)
	if err := s.Submit(bad); err != nil {
		t.Fatal(err)
	}
	waitState(t, bad, StateRunning)
	if err := s.Submit(next); err != nil {
		t.Fatal(err)
	}
	if got := next.State(); got != StateQueued {
		t.Fatalf("next state = %s behind a running job, want queued", got)
	}
	close(boom)
	waitState(t, bad, StateFailed)
	waitState(t, next, StateSucceeded)

	rec := bad.Record()
	if rec.Error != "panic: corrupt partition" {
		t.Errorf("failed job error = %q, want %q", rec.Error, "panic: corrupt partition")
	}
	last := rec.Events[len(rec.Events)-1]
	if stack, _ := last.Attrs["stack"].(string); last.Type != EventTerminal ||
		!strings.Contains(stack, "TestSchedulerSurvivesPanickingRun") {
		t.Errorf("last event = %s with stack %q, want terminal with the panicking goroutine's stack",
			last.Type, stack)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	dev := s.Fleet().Device(0)
	if free := dev.Available(); free != dev.Capacity() {
		t.Errorf("device has %d of %d bytes free after the panic", free, dev.Capacity())
	}
	if snap := s.Snapshot(); snap.Devices[0].LeasedBytes != 0 || snap.JobsRunning != 0 {
		t.Errorf("ledger after the panic: leased %d, running %d; want 0 and 0",
			snap.Devices[0].LeasedBytes, snap.JobsRunning)
	}
}

// TestSchedulerPreemptionDrain blocks the only device with a batch job,
// then submits an interactive job that fits the card's capacity but not
// its free bytes. The enqueue must ask the batch job to drain; the batch
// job returns ErrPreempted, requeues resumable, the interactive job takes
// the lease, and the batch job's second attempt completes.
func TestSchedulerPreemptionDrain(t *testing.T) {
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
				select {
				case <-j.Preempted():
					return ErrPreempted
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
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
	waitState(t, bg, StateSucceeded)

	bgRec := bg.Record()
	if bgRec.Preemptions != 1 {
		t.Errorf("batch job Preemptions = %d, want 1", bgRec.Preemptions)
	}
	if bgRec.Attempts != 2 {
		t.Errorf("batch job Attempts = %d, want 2 (preempt + resume)", bgRec.Attempts)
	}
	if fgRec := fg.Record(); fgRec.Attempts != 1 || fgRec.Preemptions != 0 {
		t.Errorf("interactive job attempts=%d preemptions=%d, want 1 and 0",
			fgRec.Attempts, fgRec.Preemptions)
	}
	if got := reg.Snapshot().Counters["fleet.preemptions"]; got != 1 {
		t.Errorf("fleet.preemptions = %d, want 1", got)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerHeterogeneousPlacement checks that a big job only lands on
// the big card and a small job prefers the idle small card.
func TestSchedulerHeterogeneousPlacement(t *testing.T) {
	rel := newReleaseMap("big")
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(100, 1000),
		QueueCap:      8,
		MaxConcurrent: 1,
		Run:           rel.run,
		Obs:           obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	big := testJob("big", 500)
	if err := s.Submit(big); err != nil {
		t.Fatal(err)
	}
	waitState(t, big, StateRunning)
	if devs := big.Record().Devices; len(devs) != 1 || devs[0] != 1 {
		t.Fatalf("big job ran on %v, want [1] (the only card that fits)", devs)
	}

	small := testJob("small", 50)
	if err := s.Submit(small); err != nil {
		t.Fatal(err)
	}
	waitState(t, small, StateSucceeded)
	if devs := small.Record().Devices; len(devs) != 1 || devs[0] != 0 {
		t.Errorf("small job ran on %v, want [0] (the idle small card)", devs)
	}

	rel.release("big")
	waitState(t, big, StateSucceeded)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerShardedPlacement runs a Shards=3 job on a 4-device fleet:
// it must lease three distinct devices at once, and a second sharded job
// must wait until enough devices free up.
func TestSchedulerShardedPlacement(t *testing.T) {
	rel := newReleaseMap("sh1")
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(100, 100, 100, 100),
		QueueCap:      8,
		MaxConcurrent: 2,
		Run:           rel.run,
		Obs:           obs.New(nil, nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	sh1 := testJobP("sh1", 60, Params{Shards: 3})
	if err := s.Submit(sh1); err != nil {
		t.Fatal(err)
	}
	waitState(t, sh1, StateRunning)

	devs := sh1.Record().Devices
	if len(devs) != 3 {
		t.Fatalf("sharded job leased devices %v, want 3", devs)
	}
	seen := map[int]bool{}
	for _, d := range devs {
		if seen[d] {
			t.Fatalf("sharded job leased device %d twice: %v", d, devs)
		}
		seen[d] = true
	}
	snap := s.Snapshot()
	for _, ds := range snap.Devices {
		want := int64(0)
		if seen[ds.Device] {
			want = 60
		}
		if ds.LeasedBytes != want {
			t.Errorf("device %d leased %d bytes, want %d", ds.Device, ds.LeasedBytes, want)
		}
	}

	// Only one device is free: a second 3-shard job must wait.
	sh2 := testJobP("sh2", 60, Params{Shards: 3})
	if err := s.Submit(sh2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := sh2.State(); got != StateQueued {
		t.Fatalf("second sharded job state = %s with only one free device, want queued", got)
	}

	rel.release("sh1")
	waitState(t, sh1, StateSucceeded)
	waitState(t, sh2, StateSucceeded)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, ds := range s.Snapshot().Devices {
		if ds.LeasedBytes != 0 {
			t.Errorf("device %d still leased %d bytes after drain", ds.Device, ds.LeasedBytes)
		}
	}
}

// TestFleetSchedulerStress hammers a heterogeneous 4-device fleet with
// mixed lanes, shard counts, and naturally occurring preemptions.
// Run under -race: every lease decision and drain crosses the scheduler
// lock and this shakes the orderings out.
func TestFleetSchedulerStress(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(100, 100, 200, 200),
		QueueCap:      64,
		MaxConcurrent: 2,
		Run: func(ctx context.Context, j *Job) error {
			select {
			case <-j.Preempted():
				return ErrPreempted
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(500 * time.Microsecond):
				return nil
			}
		},
		Obs: obs.New(nil, nil, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	demands := []int64{50, 100, 150, 200}
	jobs := make([]*Job, 40)
	for i := range jobs {
		var p Params
		demand := demands[i%4]
		if i%3 == 0 {
			p.Priority = PriorityInteractive
		}
		if i%8 == 0 {
			p.Shards = 2 // demand 50: every card fits a shard
		}
		jobs[i] = testJobP(fmt.Sprintf("s%02d", i), demand, p)
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
	for d, ds := range s.Snapshot().Devices {
		if ds.LeasedBytes != 0 {
			t.Errorf("device %d still leased %d bytes after drain", d, ds.LeasedBytes)
		}
		if used := s.Fleet().Device(d).InUse(); used != 0 {
			t.Errorf("device %d allocator still holds %d bytes", d, used)
		}
	}
	if s.QueueDepth() != 0 {
		t.Errorf("queue depth %d after all jobs finished, want 0", s.QueueDepth())
	}
}

// TestSchedulerPreemptsOnlyWhatArrivalNeeds: one interactive arrival asks
// exactly as many batch jobs to drain as its demand needs, however many
// placement passes run while the drain is pending. Three 300-byte batch
// jobs run on a 1000-byte card with a fourth slot free; a 350-byte
// interactive arrival needs one of them drained (100 free + 300 >= 350).
// The drain commits only when the test releases it, and a second arrival
// runs another pass in the meantime.
func TestSchedulerPreemptsOnlyWhatArrivalNeeds(t *testing.T) {
	drain, finish := make(chan struct{}), make(chan struct{})
	reg := obs.NewRegistry()
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(1000),
		QueueCap:      8,
		MaxConcurrent: 4,
		Run: func(ctx context.Context, j *Job) error {
			if rec := j.Record(); rec.Params.Lane() == PriorityInteractive || rec.Attempts > 1 {
				return nil
			}
			select {
			case <-j.Preempted():
				select {
				case <-drain:
					return ErrPreempted
				case <-ctx.Done():
					return ctx.Err()
				}
			case <-finish:
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
	defer s.Kill()

	preemptions := func() int64 { return reg.Snapshot().Counters["fleet.preemptions"] }
	batch := make([]*Job, 3)
	for i := range batch {
		batch[i] = testJob(fmt.Sprintf("b%d", i), 300)
		if err := s.Submit(batch[i]); err != nil {
			t.Fatal(err)
		}
		waitState(t, batch[i], StateRunning)
	}
	fg := testJobP("fg", 350, Params{Priority: PriorityInteractive})
	if err := s.Submit(fg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for preemptions() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Another event while the drain is pending: a batch job that does not
	// fit either.
	extra := testJob("extra", 300)
	if err := s.Submit(extra); err != nil {
		t.Fatal(err)
	}
	// Settle: a trigger that fired off the submitting goroutine would ask
	// for its drain within this window.
	time.Sleep(50 * time.Millisecond)
	if got := preemptions(); got != 1 {
		t.Fatalf("fleet.preemptions = %d before the drain committed, want 1", got)
	}

	close(drain)
	waitState(t, fg, StateSucceeded)
	close(finish)
	drained := 0
	for _, j := range append(batch, extra) {
		waitState(t, j, StateSucceeded)
		drained += j.Record().Preemptions
	}
	if drained != 1 || preemptions() != 1 {
		t.Errorf("%d batch jobs drained, fleet.preemptions = %d; want 1 and 1", drained, preemptions())
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
