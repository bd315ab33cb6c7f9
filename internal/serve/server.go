package serve

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/obs"
)

// Config parameterizes a job server.
type Config struct {
	// Root is the data directory (job records, inputs, workspaces).
	Root string
	// GPU is the card model jobs are costed and fingerprinted against.
	// Every job runs under this spec (with its lease as the memory bound),
	// so results and resume manifests are identical no matter which fleet
	// device admission placed the job on.
	GPU gpu.Spec
	// Devices sizes a homogeneous fleet of GPU-spec cards (default 1).
	// DeviceSpecs, when set, overrides both with an explicit — possibly
	// heterogeneous — device list.
	Devices     int
	DeviceSpecs []gpu.Spec
	// QueueCap bounds the run queue (default 16); MaxConcurrent bounds
	// simultaneous runs per device (default 2).
	QueueCap      int
	MaxConcurrent int
	// Pipeline geometry shared by all jobs; zero values take the core
	// defaults. Per-job knobs live in Params.
	HostBlockPairs   int
	DeviceBlockPairs int
	MapBatchReads    int
	// MaxBodyBytes caps a submission body (default 256 MiB).
	MaxBodyBytes int64
	// HostMemBytes is the host-memory budget one job may claim under the
	// admission model (default 8 GiB). Submission is rejected with 422
	// when core.GraphHostModel for the job's size and selected graph
	// backend exceeds it; /healthz advertises the resulting per-backend
	// maximum job sizes. The budget bounds the modeled footprint — reads
	// plus graph representation — not the Go process RSS.
	HostMemBytes int64
	// Obs is the server's observability sink. Its metrics registry (one is
	// created if absent) carries the scheduler gauges/counters and the
	// per-job child registries the debug endpoint serves.
	Obs *obs.Observer
	// StageCommitHook, when set, fires after every stage a job commits,
	// with the job's run context; tests use it to pause a job or kill the
	// server at a precise recovery point. For sharded jobs it fires per
	// node-stage commit.
	StageCommitHook func(ctx context.Context, jobID string, stage core.PhaseName) error
	// FlightRecorderEvents sizes the fleet flight recorder's global log of
	// scheduler lifecycle events, served at /debug/events (0 means 4096).
	// The recorder is always on: each job also keeps its own events
	// (/v1/jobs/{id}/events).
	FlightRecorderEvents int
}

// Server is the assembly job service: HTTP API + scheduler +
// store, sharing a fleet of bounded devices.
type Server struct {
	cfg     Config
	store   *Store
	sched   *Scheduler
	fleet   *gpu.Fleet
	mux     *http.ServeMux
	handler http.Handler
	log     *slog.Logger
	flight  *FlightRecorder
	started time.Time
}

// New opens the data directory, sweeps orphaned state from crashed runs,
// recovers persisted jobs (terminal ones become listable, interrupted
// ones re-queue and resume through their manifests), builds the device
// fleet, and starts the scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("serve: empty root directory")
	}
	if cfg.GPU.MemBytes <= 0 {
		return nil, fmt.Errorf("serve: GPU spec has no memory capacity")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.HostMemBytes <= 0 {
		cfg.HostMemBytes = 8 << 30
	}
	if cfg.Obs == nil || cfg.Obs.Metrics() == nil {
		cfg.Obs = obs.New(cfg.Obs.Log(), cfg.Obs.Tracer(), obs.NewRegistry())
	}
	specs := cfg.DeviceSpecs
	if len(specs) == 0 {
		if cfg.Devices <= 0 {
			cfg.Devices = 1
		}
		specs = make([]gpu.Spec, cfg.Devices)
		for i := range specs {
			specs[i] = cfg.GPU
		}
	}
	fleet, err := gpu.NewFleet(specs)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(cfg.Root)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		fleet:   fleet,
		log:     cfg.Obs.Log(),
		flight:  NewFlightRecorder(cfg.FlightRecorderEvents),
		started: time.Now(),
	}
	s.sched, err = NewScheduler(SchedulerConfig{
		Fleet:         fleet,
		QueueCap:      cfg.QueueCap,
		MaxConcurrent: cfg.MaxConcurrent,
		Run:           s.runJob,
		OnTransition:  s.onTransition,
		Obs:           cfg.Obs,
		Recorder:      s.flight,
	})
	if err != nil {
		return nil, err
	}
	if _, err := store.Sweep(s.log); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.mux = s.buildMux()
	s.handler = s.withRequestLog(s.mux)
	return s, nil
}

// recover reloads every persisted job: terminal records register for
// listing; submitted/queued/running records re-enter the queue (in
// original submission order) and resume mid-pipeline via their run
// manifests — possibly on different devices than the crashed attempt,
// which is safe because jobs are fingerprinted against the base GPU spec,
// not the fleet card they land on.
func (s *Server) recover() error {
	recs, err := s.store.List()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		j := NewJob(rec)
		if rec.State.Terminal() {
			s.sched.Register(j)
			continue
		}
		s.log.Info("recovering interrupted job", "job", rec.ID, "state", rec.State,
			"attempts", rec.Attempts)
		s.sched.Recover(j)
	}
	return nil
}

// Handler returns the server's HTTP handler: the API mux wrapped in the
// request-logging middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Fleet exposes the device inventory (admission accounting, tests).
func (s *Server) Fleet() *gpu.Fleet { return s.fleet }

// Scheduler exposes the scheduler (metrics, tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Store exposes the on-disk layout (tests, tooling).
func (s *Server) Store() *Store { return s.store }

// Drain gracefully shuts the job layer down: submissions are rejected,
// running jobs are cancelled at the next device batch with their
// committed stages resumable, and every record is flushed. The HTTP
// listener is the caller's to close (http.Server.Shutdown first).
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Kill crash-stops the job layer without persisting anything; tests use
// it to exercise the recovery path.
func (s *Server) Kill() { s.sched.Kill() }

// onTransition persists every job state change and finishes terminal
// jobs' workspace cleanup. A job handed back to the queue after running
// (preemption or drain) gets its sort scratch swept here — the scheduler
// fires this before the job can start again, and its next attempt may
// land on different devices.
func (s *Server) onTransition(j *Job) {
	rec := j.Record()
	if err := s.store.Save(rec); err != nil {
		s.log.Error("persisting job record", "job", rec.ID, "err", err)
	}
	switch {
	case rec.State.Terminal():
		if err := s.store.CleanupWorkspace(rec.ID); err != nil {
			s.log.Error("cleaning job workspace", "job", rec.ID, "err", err)
		}
	case rec.State == StateQueued && rec.Attempts > 0:
		if err := s.store.SweepScratch(rec.ID); err != nil {
			s.log.Error("sweeping job scratch", "job", rec.ID, "err", err)
		}
	}
}

// jobConfig builds the core configuration a job runs under (on every node,
// when sharded). The job's device is a private handle whose capacity
// equals the job's lease, so a job can never use more device memory than
// admission granted it; the demand is persisted in the record, which
// keeps the config fingerprint —
// and therefore manifest resume — stable across server restarts and
// across whichever fleet device the attempt lands on.
func (s *Server) jobConfig(rec Record) core.Config {
	cfg := core.DefaultConfig(s.store.WorkDir(rec.ID))
	if s.cfg.HostBlockPairs > 0 {
		cfg.HostBlockPairs = s.cfg.HostBlockPairs
	}
	if s.cfg.DeviceBlockPairs > 0 {
		cfg.DeviceBlockPairs = s.cfg.DeviceBlockPairs
	}
	if s.cfg.MapBatchReads > 0 {
		cfg.MapBatchReads = s.cfg.MapBatchReads
	}
	cfg.MinOverlap = rec.Params.MinOverlap
	cfg.Workers = rec.Params.Workers
	cfg.DedupeReads = rec.Params.DedupeReads
	cfg.IncludeSingletons = rec.Params.IncludeSingletons
	cfg.VerifyOverlaps = rec.Params.VerifyOverlaps
	cfg.GraphBackend = rec.Params.GraphBackend
	cfg.GPU = s.cfg.GPU
	if rec.DeviceDemandBytes > 0 {
		cfg.GPU.MemBytes = rec.DeviceDemandBytes
	}
	cfg.Resume = true // a fresh workspace has no manifest; resume is a no-op there
	return cfg
}

// runJob executes one job under jobConfig: on one device through the core
// pipeline, or with Shards > 1 as the same configuration on that many
// cluster nodes, node i bound to a private device whose capacity equals
// the per-shard lease admission granted on fleet device Devices[i]. Reads
// come from the persisted input, and the job's private metrics registry is
// mounted on the server registry under a job="<id>" label for the lifetime
// of the run. The cluster's lockstep manifests make a sharded job exactly
// as preemptible and crash-resumable as a single-device one, and its
// contig output is byte-identical to the unsharded job's.
func (s *Server) runJob(ctx context.Context, j *Job) error {
	rec := j.Record()
	reads, _, err := fastq.ReadFile(s.store.InputPath(rec.ID))
	if err != nil {
		return fmt.Errorf("serve: reloading job input: %w", err)
	}

	jobReg := obs.NewRegistry()
	parent := s.cfg.Obs.Metrics()
	label := `job="` + rec.ID + `"`
	parent.AttachChild(label, jobReg)
	defer parent.DetachChild(label)

	cfg := s.jobConfig(rec)
	cfg.Obs = obs.New(s.log.With("job", rec.ID), nil, jobReg)
	cfg.Progress = func(stage, event string) {
		j.Update(func(r *Record) {
			r.Stage = stage
			switch event {
			case core.ProgressDone:
				r.StagesDone = append(r.StagesDone, stage)
			case core.ProgressCached:
				r.StagesDone = append(r.StagesDone, stage)
				r.CachedStages = append(r.CachedStages, stage)
			}
		})
		if err := s.store.Save(j.Record()); err != nil {
			s.log.Error("persisting job progress", "job", rec.ID, "err", err)
		}
	}

	var res *core.Result
	if k := rec.Params.ShardCount(); k > 1 {
		specs := make([]gpu.Spec, k)
		for i := range specs {
			specs[i] = cfg.GPU
		}
		jobFleet, err := gpu.NewFleet(specs)
		if err != nil {
			return err
		}
		cl, err := cluster.New(cluster.Config{Config: cfg, Nodes: k, Fleet: jobFleet})
		if err != nil {
			return err
		}
		cl.FaultHook = func(nodeID int, stage core.PhaseName) error {
			return s.stageCommitted(ctx, j, stage, map[string]any{"stage": string(stage), "node": nodeID})
		}
		cres, err := cl.AssembleContext(ctx, reads)
		if err != nil {
			return err
		}
		res = &cres.Result
	} else {
		p, err := core.New(cfg)
		if err != nil {
			return err
		}
		p.FaultHook = func(stage core.PhaseName) error {
			return s.stageCommitted(ctx, j, stage, map[string]any{"stage": string(stage)})
		}
		if res, err = p.AssembleContext(ctx, reads); err != nil {
			return err
		}
	}
	if err := s.store.InstallResult(rec.ID); err != nil {
		return err
	}
	j.Update(func(r *Record) {
		r.CachedStages = append([]string(nil), res.CachedStages...)
		r.Result = &ResultSummary{
			NumContigs:     res.ContigStats.NumContigs,
			TotalBases:     res.ContigStats.TotalBases,
			MaxContigLen:   res.ContigStats.MaxLen,
			N50:            res.ContigStats.N50,
			CandidateEdges: res.CandidateEdges,
			AcceptedEdges:  res.AcceptedEdges,
			WallMillis:     res.TotalWall.Milliseconds(),
			ModeledMillis:  res.TotalModeled.Milliseconds(),
		}
	})
	return nil
}

// stageCommitted is what a run does once a stage (or one node's share of
// it) has committed: record the event, honour a pending preemption, then
// run the configured hook.
func (s *Server) stageCommitted(ctx context.Context, j *Job, stage core.PhaseName, fields map[string]any) error {
	s.flight.Emit(j, EventStageCommit, fields)
	if err := s.checkPreempt(j); err != nil {
		return err
	}
	if s.cfg.StageCommitHook != nil {
		return s.cfg.StageCommitHook(ctx, j.Record().ID, stage)
	}
	return nil
}

// checkPreempt turns a pending preemption request into the drain error a
// run function returns at a stage commit.
func (s *Server) checkPreempt(j *Job) error {
	select {
	case <-j.Preempted():
		return ErrPreempted
	default:
		return nil
	}
}

// buildMux wires the HTTP API.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	return mux
}

// statusWriter remembers the status code a handler wrote, for the
// request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// newRequestID returns a fresh random request identifier (16 hex chars).
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// withRequestLog logs one slog line per API call (method, path, status,
// duration) and tags every response with a generated X-Request-Id so a
// client report can be joined against the server log.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := newRequestID()
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Info("http request", "requestId", id, "method", r.Method,
			"path", r.URL.Path, "status", sw.status,
			"durMs", time.Since(start).Milliseconds())
	})
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitKeys are the query keys a submit reads; parseParams refuses any
// other, so a misspelt or retired knob never silently runs the default.
var submitKeys = []string{"lmin", "workers", "shards", "dedupe", "singletons", "verify",
	"graph-backend", "priority", "name"}

// parseParams reads the per-job knobs from the submit query string.
func parseParams(r *http.Request) (Params, error) {
	q := r.URL.Query()
	p := Params{MinOverlap: 63, Workers: 1}
	for key := range q {
		if !slices.Contains(submitKeys, key) {
			return p, fmt.Errorf("unknown query key %q (want one of %v)", key, submitKeys)
		}
	}
	if v := q.Get("lmin"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, fmt.Errorf("invalid lmin %q", v)
		}
		p.MinOverlap = n
	}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("invalid workers %q", v)
		}
		p.Workers = n
	}
	if v := q.Get("shards"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, fmt.Errorf("invalid shards %q", v)
		}
		p.Shards = n
	}
	boolParam := func(key string, dst *bool) error {
		v := q.Get(key)
		if v == "" {
			return nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("invalid %s %q", key, v)
		}
		*dst = b
		return nil
	}
	for key, dst := range map[string]*bool{
		"dedupe":     &p.DedupeReads,
		"singletons": &p.IncludeSingletons,
		"verify":     &p.VerifyOverlaps,
	} {
		if err := boolParam(key, dst); err != nil {
			return p, err
		}
	}
	if v := q.Get("graph-backend"); v != "" {
		if !slices.Contains(core.Backends, v) {
			return p, fmt.Errorf("invalid graph-backend %q (want one of %v)", v, core.Backends)
		}
		p.GraphBackend = v
	}
	if v := q.Get("priority"); v != "" {
		if !slices.Contains(Priorities, v) {
			return p, fmt.Errorf("invalid priority %q (want one of %v)", v, Priorities)
		}
		p.Priority = v
	}
	return p, nil
}

// handleSubmit accepts a FASTQ/FASTA body plus query-string knobs,
// persists the job, and queues it. The body is parsed as it streams into
// the job's input.fastq, so it is never held whole; every rejection
// removes the job directory again. Responses: 201 with the job record,
// 400 on bad input, 413 when the body exceeds the limit, 422 when the job
// can never fit on the fleet, 429 (+ Retry-After) when the run queue is
// full, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	params, err := parseParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec := Record{
		ID:          NewJobID(),
		Name:        r.URL.Query().Get("name"),
		State:       StateSubmitted,
		Params:      params,
		SubmittedAt: time.Now().UTC(),
	}
	in, err := s.store.CreateJob(rec.ID)
	admitted := false
	defer func() {
		if !admitted {
			if err := s.store.Remove(rec.ID); err != nil {
				s.log.Error("removing rejected job", "job", rec.ID, "err", err)
			}
		}
	}()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "persisting job: %v", err)
		return
	}
	body := &io.LimitedReader{R: r.Body, N: s.cfg.MaxBodyBytes + 1}
	out := bufio.NewWriter(in)
	reads, _, err := fastq.ReadAll(io.TeeReader(body, out))
	rest := io.Writer(out) // the input is kept verbatim past where parsing stops
	if err != nil {
		rest = io.Discard // read on only so an oversized body answers 413, not 400
	}
	if _, cerr := io.Copy(rest, body); err == nil {
		err = cerr
	}
	werr := errors.Join(out.Flush(), in.Close())
	switch {
	case body.N == 0:
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	case werr != nil:
		writeError(w, http.StatusInternalServerError, "persisting job input: %v", werr)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "parsing reads: %v", err)
		return
	case reads.NumReads() == 0:
		writeError(w, http.StatusBadRequest, "no reads in body")
		return
	case reads.MaxLen() <= params.MinOverlap:
		writeError(w, http.StatusUnprocessableEntity,
			"lmin %d is not below the longest read length %d", params.MinOverlap, reads.MaxLen())
		return
	}

	rec.NumReads, rec.MaxReadLen = reads.NumReads(), reads.MaxLen()
	rec.DeviceDemandBytes = s.jobConfig(rec).DeviceDemandBytes(reads.MaxLen())
	if fit := s.fleet.FitCount(rec.DeviceDemandBytes); fit < params.ShardCount() {
		writeError(w, http.StatusUnprocessableEntity,
			"job needs %d device(s) with %d bytes of memory, fleet has %d that large: lower workers or shards",
			params.ShardCount(), rec.DeviceDemandBytes, fit)
		return
	}
	backend := params.GraphBackend
	if backend == "" {
		backend = core.BackendGreedy
	}
	if demand := core.GraphHostModel(backend, reads.NumReads(), reads.MaxLen()); demand > s.cfg.HostMemBytes {
		writeError(w, http.StatusUnprocessableEntity,
			"job's modeled host footprint %d bytes exceeds the %d-byte budget: backend %q admits at most %d reads of length %d",
			demand, s.cfg.HostMemBytes, backend,
			core.MaxReadsForHostBudget(backend, s.cfg.HostMemBytes, reads.MaxLen()), reads.MaxLen())
		return
	}
	if err := s.store.Save(rec); err != nil {
		writeError(w, http.StatusInternalServerError, "persisting job: %v", err)
		return
	}
	j := NewJob(rec)
	if err := s.sched.Submit(j); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeError(w, http.StatusTooManyRequests, "run queue is full, retry later")
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "server is draining")
		default:
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	admitted = true
	w.Header().Set("Location", "/v1/jobs/"+rec.ID)
	writeJSON(w, http.StatusCreated, j.Record())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	recs := make([]Record, 0, len(jobs))
	for _, j := range jobs {
		recs = append(recs, j.Record())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":  recs,
		"fleet": s.sched.Snapshot(),
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Record())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	rec := j.Record()
	if rec.State != StateSucceeded {
		writeError(w, http.StatusConflict, "job %s is %s, not succeeded", id, rec.State)
		return
	}
	f, err := os.Open(s.store.ResultPath(id))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening result: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/x-fasta")
	io.Copy(w, f)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.sched.Cancel(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, rec)
	case errors.Is(err, ErrJobTerminal):
		writeError(w, http.StatusConflict, "job %s is already %s", id, rec.State)
	default:
		writeError(w, http.StatusNotFound, "%v", err)
	}
}

// retryAfterSeconds is the Retry-After a 429 advertises.
const retryAfterSeconds = "2"

// admissionReadLen is the reference read length /healthz quotes the
// per-backend maximum job sizes at. Submissions are still admitted
// against their actual MaxLen; this only anchors the advertised numbers.
const admissionReadLen = 150

// handleHealthz reports liveness plus the fleet's admission state (queue
// depth, running jobs, preemptions, and every card's capacity, leased
// bytes and running jobs), the binary's build identity, how long the
// server has been up, and the host-side admission envelope — the modeled
// maximum reads each graph backend admits under the configured host
// budget.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.sched.Snapshot()
	version, revision, modified := buildinfo.Info()
	if modified {
		revision += "-modified"
	}
	maxReads := make(map[string]int, len(core.Backends))
	for _, b := range core.Backends {
		maxReads[b] = core.MaxReadsForHostBudget(b, s.cfg.HostMemBytes, admissionReadLen)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"version":       version,
		"revision":      revision,
		"uptimeSeconds": math.Round(time.Since(s.started).Seconds()),
		"fleet":         snap,
		"admission": map[string]any{
			"hostMemBytes":       s.cfg.HostMemBytes,
			"referenceReadLen":   admissionReadLen,
			"maxReadsPerBackend": maxReads,
		},
	})
}

// handlePrometheus renders the metrics registry — scheduler instruments
// and any live jobs' child registries under their job="<id>" label — in
// Prometheus text exposition format 0.0.4.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypePrometheus)
	obs.WritePrometheus(w, s.cfg.Obs.Metrics().Snapshot())
}

// handleJobEvents serves a job's flight-recorder lifecycle history in
// emission order.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	rec := j.Record()
	events := rec.Events
	if events == nil {
		events = []obs.LogEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":         id,
		"totalEvents": rec.TotalEvents,
		"dropped":     rec.TotalEvents - uint64(len(events)),
		"events":      events,
	})
}

// handleDebugEvents serves the global scheduler audit log, newest window
// of FlightRecorderEvents entries, optionally filtered to sequence
// numbers after ?since=N.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid since %q", v)
			return
		}
		since = n
	}
	log := s.flight.Log()
	events := log.Since(since)
	if events == nil {
		events = []obs.LogEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   log.Total(),
		"dropped": log.Dropped(),
		"events":  events,
	})
}
