// Command lasagna-serve runs the assembly job service: an HTTP API that
// accepts FASTQ jobs, schedules them from one fleet queue of priority
// lanes with device-memory admission control onto a fleet of simulated
// GPUs (each claim on the least-leased card that can start it,
// batch jobs preempted for interactive ones), persists every job
// transition with its flight-recorder events, and resumes interrupted
// jobs after a restart.
//
// Usage:
//
//	lasagna-serve -addr localhost:8844 -root ./serve-data
//	lasagna-serve -root ./serve-data -gpu P100 -devices 4 -max-jobs 4 -queue-cap 32
//	lasagna-serve -root ./serve-data -device-specs "2xK40,P100"
//
// Submit, watch, fetch:
//
//	curl -sf --data-binary @reads.fastq 'http://localhost:8844/v1/jobs?lmin=31&workers=2'
//	curl -sf --data-binary @reads.fastq 'http://localhost:8844/v1/jobs?priority=interactive'
//	curl -sf --data-binary @reads.fastq 'http://localhost:8844/v1/jobs?shards=4'
//	curl -sf http://localhost:8844/v1/jobs/<id>
//	curl -sf http://localhost:8844/v1/jobs/<id>/result > contigs.fasta
//
// SIGINT/SIGTERM drain gracefully: the listener closes, running jobs are
// cancelled with their committed stages resumable, and every record is
// flushed; a restarted server picks the interrupted jobs back up through
// their run manifests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8844", "HTTP listen address")
		root      = flag.String("root", "", "data directory for job records, inputs, and workspaces (required)")
		gpuName   = flag.String("gpu", "K40", "modeled GPU card jobs are costed against (K20X, K40, P40, P100, V100)")
		devices   = flag.Int("devices", 1, "fleet size: number of -gpu cards jobs are scheduled onto")
		devSpecs  = flag.String("device-specs", "", `explicit (possibly heterogeneous) fleet, e.g. "2xK40,P100"; overrides -gpu/-devices`)
		queueCap  = flag.Int("queue-cap", 16, "run-queue bound; submissions beyond it get HTTP 429")
		maxJobs   = flag.Int("max-jobs", 2, "maximum concurrently running jobs per device")
		hostBlock = flag.Int("host-block", 1<<20, "host block size m_h in pairs, shared by all jobs")
		devBlock  = flag.Int("device-block", 1<<16, "device block size m_d in pairs, shared by all jobs")
		mapBatch  = flag.Int("map-batch", 0, "reads per map device batch (0 = core default)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for jobs to unwind")
		verbose   = flag.Bool("v", false, "verbose logging: debug-level scheduler and stage events")
		quiet     = flag.Bool("quiet", false, "log errors only")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("lasagna-serve"))
		return
	}
	if *root == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "lasagna-serve: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	spec, ok := gpu.SpecByName(*gpuName)
	if !ok {
		fmt.Fprintf(os.Stderr, "lasagna-serve: unknown GPU %q\n", *gpuName)
		os.Exit(2)
	}
	var fleetSpecs []gpu.Spec
	if *devSpecs != "" {
		var err error
		fleetSpecs, err = gpu.ParseSpecs(*devSpecs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lasagna-serve: %v\n", err)
			os.Exit(2)
		}
	}

	level := slog.LevelInfo
	switch {
	case *quiet:
		level = slog.LevelError
	case *verbose:
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat == "json")
	observer := obs.New(logger, nil, obs.NewRegistry())

	srv, err := serve.New(serve.Config{
		Root:             *root,
		GPU:              spec,
		Devices:          *devices,
		DeviceSpecs:      fleetSpecs,
		QueueCap:         *queueCap,
		MaxConcurrent:    *maxJobs,
		HostBlockPairs:   *hostBlock,
		DeviceBlockPairs: *devBlock,
		MapBatchReads:    *mapBatch,
		Obs:              observer,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "root", *root, "gpu", spec.Name,
		"devices", srv.Fleet().Size(), "queueCap", *queueCap, "maxJobs", *maxJobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("shutdown signal received, draining")
	case err := <-errCh:
		fatal(err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Error("closing HTTP listener", "err", err)
	}
	if err := srv.Drain(shutCtx); err != nil {
		fatal(err)
	}
	logger.Info("drained cleanly; interrupted jobs resume on next start")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lasagna-serve: %v\n", err)
	os.Exit(1)
}
