package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fleetBenchConfig is one scheduler shape the fleet benchmark measures.
type fleetBenchConfig struct {
	Devices    int     `json:"devices"`
	Jobs       int     `json:"jobs"`
	WallSec    float64 `json:"wallSeconds"`
	JobsPerSec float64 `json:"jobsPerSec"`
	P50QueueMs float64 `json:"p50QueueMs"`
	P99QueueMs float64 `json:"p99QueueMs"`
}

// fleetBenchReport is the machine-readable summary `make bench` stores as
// BENCH_fleet.json. Throughput and latency are wall-clock and
// machine-dependent; the bench gate only compares modeled metrics, so
// this file documents scaling rather than gating it.
type fleetBenchReport struct {
	JobMillis int                `json:"jobMillisMean"`
	Configs   []fleetBenchConfig `json:"configs"`
	Speedup4x float64            `json:"speedup4xVs1"`
}

// BenchmarkFleetThroughput measures scheduler-level fleet scaling with
// modeled (sleep-based) jobs of staggered durations: jobs/sec and
// p50/p99 queue latency at 1, 2, and 4 devices. Sleep-based run
// functions keep the measurement about dispatch and placement, not
// pipeline CPU, so device-count scaling shows through even on small CI
// machines. When BENCH_FLEET_OUT names a file the summary is written
// there as JSON.
func BenchmarkFleetThroughput(b *testing.B) {
	const jobs = 48
	var rep fleetBenchReport
	rep.JobMillis = 25
	for i := 0; i < b.N; i++ {
		rep.Configs = rep.Configs[:0]
		for _, devices := range []int{1, 2, 4} {
			rep.Configs = append(rep.Configs, runFleetBenchWave(b, devices, jobs))
		}
		rep.Speedup4x = rep.Configs[2].JobsPerSec / rep.Configs[0].JobsPerSec
	}
	four := rep.Configs[2]
	b.ReportMetric(four.JobsPerSec, "jobs/s@4dev")
	b.ReportMetric(rep.Speedup4x, "speedup-4v1")
	b.ReportMetric(four.P99QueueMs, "p99-queue-ms")

	if out := os.Getenv("BENCH_FLEET_OUT"); out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// runFleetBenchWave pushes `jobs` staggered sleep-jobs through a fresh
// scheduler with the given fleet shape and returns the measured config.
// Job durations cycle 5..45ms so devices free up unevenly.
func runFleetBenchWave(b *testing.B, devices, jobs int) fleetBenchConfig {
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
	return fleetBenchConfig{
		Devices:    devices,
		Jobs:       jobs,
		WallSec:    wall.Seconds(),
		JobsPerSec: float64(jobs) / wall.Seconds(),
		P50QueueMs: waits[len(waits)/2],
		P99QueueMs: waits[(len(waits)-1)*99/100],
	}
}
