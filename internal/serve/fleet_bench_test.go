package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fleetWave is one fleet shape's measured run.
type fleetWave struct {
	jobsPerSec, p99QueueMs float64
}

// BenchmarkFleetThroughput measures scheduler-level fleet scaling with
// modeled (sleep-based) jobs of staggered durations: jobs/sec and p99
// queue latency at 4 devices and the jobs/sec speedup over 1 device.
// Sleep-based run functions keep the measurement about dispatch and
// placement, not pipeline CPU, so device-count scaling shows through even
// on small CI machines. The figures are wall-clock: reported, not gated.
func BenchmarkFleetThroughput(b *testing.B) {
	const jobs = 48
	var one, four fleetWave
	for i := 0; i < b.N; i++ {
		one = runFleetBenchWave(b, 1, jobs)
		four = runFleetBenchWave(b, 4, jobs)
	}
	b.ReportMetric(four.jobsPerSec, "jobs/s@4dev")
	b.ReportMetric(four.jobsPerSec/one.jobsPerSec, "speedup-4v1")
	b.ReportMetric(four.p99QueueMs, "p99-queue-ms")
}

// runFleetBenchWave pushes `jobs` staggered sleep-jobs through a fresh
// scheduler with the given fleet shape and returns what it measured.
// Job durations cycle 5..45ms so devices free up unevenly.
func runFleetBenchWave(b *testing.B, devices, jobs int) fleetWave {
	b.Helper()
	caps := make([]int64, devices)
	for i := range caps {
		caps[i] = 100
	}
	var mu sync.Mutex
	waits := make([]float64, 0, jobs)
	submitted := make(map[string]time.Time, jobs)
	reg := obs.NewRegistry()
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(caps...),
		QueueCap:      jobs + 1,
		MaxConcurrent: 1,
		Run: func(ctx context.Context, j *Job) error {
			id := j.Record().ID
			mu.Lock()
			waits = append(waits, float64(time.Since(submitted[id]).Microseconds())/1e3)
			mu.Unlock()
			var n int
			fmt.Sscanf(id, "f%d", &n)
			select {
			case <-time.After(time.Duration(5+(n%5)*10) * time.Millisecond):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		Obs: obs.New(nil, nil, reg),
	})
	if err != nil {
		b.Fatal(err)
	}

	all := make([]*Job, jobs)
	start := time.Now()
	for i := range all {
		id := fmt.Sprintf("f%d", i)
		all[i] = testJob(id, 100)
		mu.Lock()
		submitted[id] = time.Now()
		mu.Unlock()
		if err := s.Submit(all[i]); err != nil {
			b.Fatal(err)
		}
	}
	for _, j := range all {
		for st := j.State(); st != StateSucceeded; st = j.State() {
			if st.Terminal() {
				b.Fatalf("bench job %s ended %s", j.Record().ID, st)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	wall := time.Since(start)
	if err := s.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}

	sort.Float64s(waits)
	return fleetWave{
		jobsPerSec: float64(jobs) / wall.Seconds(),
		p99QueueMs: waits[(len(waits)-1)*99/100],
	}
}
