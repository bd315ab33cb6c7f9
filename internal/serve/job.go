// Package serve turns the single-shot assembly pipeline into a job
// service: an HTTP API accepts FASTQ jobs, a sharded scheduler with real
// admission control packs them onto a fleet of simulated GPUs, and per-job JSON records plus the core run manifests
// make the whole thing crash-safe — a killed server restarts, re-lists
// its jobs, and resumes in-flight ones mid-pipeline, possibly on
// different devices than the crashed attempt.
//
// Admission happens at two levels, mirroring the paper's two-level memory
// model: one bounded fleet queue of priority lanes with HTTP 429
// backpressure bounds the host-side backlog, and device-memory leases
// (Config.DeviceDemandBytes claimed against specific fleet devices) bound
// how many jobs run concurrently — the sum of admitted leases can never
// exceed any card, so concurrent jobs never oversubscribe device memory.
// One placement pass under the scheduler lock makes every decision, like
// the paper's master handing work to whichever node is free: each claim
// goes to the least-leased device that can start the job, interactive
// jobs go ahead of batch jobs and may preempt them (drain at the next
// stage commit, requeue resumable), and a Shards=K job runs across K
// devices via the cluster layer. A job's FASTA output is byte-identical
// regardless of which devices ran it, how often it was preempted, or its
// shard count.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/obs"
)

// The Params.Priority admission lanes, in descending scheduling priority.
const (
	// PriorityInteractive jobs are dispatched before any batch job and may
	// preempt running batch jobs when no device has room.
	PriorityInteractive = "interactive"
	// PriorityBatch is the default lane (also the resolution of "").
	PriorityBatch = "batch"
)

// Priorities lists the valid Priority values, for API validation.
var Priorities = []string{PriorityInteractive, PriorityBatch}

// State is one point in a job's lifecycle. The transitions are:
//
//	submitted -> queued -> running -> succeeded | failed | canceled
//
// with two exceptions: a queued job may go straight to canceled, and a
// running job returns to queued when the server drains (SIGTERM) or
// crashes — its committed stages resume from the run manifest on the next
// start. succeeded/failed/canceled are terminal.
type State string

const (
	StateSubmitted State = "submitted"
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Params are the per-job assembly knobs a client may set at submit time.
// Everything else (block sizes, the modeled card) is server configuration:
// jobs share one device, so its geometry is not theirs to choose.
type Params struct {
	MinOverlap        int  `json:"minOverlap"`
	Workers           int  `json:"workers"`
	DedupeReads       bool `json:"dedupeReads,omitempty"`
	IncludeSingletons bool `json:"includeSingletons,omitempty"`
	VerifyOverlaps    bool `json:"verifyOverlaps,omitempty"`
	// GraphBackend selects the reduce/compress engine: "" or one of
	// core.Backends; see core.Config.GraphBackend.
	GraphBackend string `json:"graphBackend,omitempty"`
	// Priority selects the admission lane: "" or "batch", or
	// "interactive" for jobs dispatched ahead of every batch job (and
	// allowed to preempt running batch jobs when no device has room).
	Priority string `json:"priority,omitempty"`
	// Shards splits the job across this many fleet devices via the
	// cluster layer (0 or 1 = single-device pipeline). Output is
	// byte-identical at every shard count.
	Shards int `json:"shards,omitempty"`
}

// UnmarshalJSON also reads a record written while the full string graph
// was a flag of its own: "fullGraph": true loads as graphBackend "full",
// which core.Config.Validate rejects naming its replacement, so the
// recovered job fails as one recorded with "full" does. Without this,
// encoding/json would drop the field and the job would run greedy.
func (p *Params) UnmarshalJSON(data []byte) error {
	type plain Params // without this method
	var rec struct {
		plain
		FullGraph bool `json:"fullGraph"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return err
	}
	*p = Params(rec.plain)
	if rec.FullGraph && p.GraphBackend == "" {
		p.GraphBackend = "full"
	}
	return nil
}

// Lane returns the resolved priority lane ("" means batch).
func (p Params) Lane() string {
	if p.Priority == "" {
		return PriorityBatch
	}
	return p.Priority
}

// ShardCount returns the resolved shard count (0 means 1).
func (p Params) ShardCount() int {
	if p.Shards < 1 {
		return 1
	}
	return p.Shards
}

// ResultSummary is the part of a finished run worth keeping in the job
// record; the full FASTA is fetched separately.
type ResultSummary struct {
	NumContigs     int     `json:"numContigs"`
	TotalBases     int64   `json:"totalBases"`
	MaxContigLen   int     `json:"maxContigLen"`
	N50            int     `json:"n50"`
	CandidateEdges int64   `json:"candidateEdges"`
	AcceptedEdges  int64   `json:"acceptedEdges"`
	WallMillis     int64   `json:"wallMillis"`
	ModeledMillis  int64   `json:"modeledMillis"`
	QueueWaitMs    float64 `json:"queueWaitMs"`
}

// Record is the persistent state of one job, stored as job.json in the
// job's directory and rewritten atomically on every transition. Together
// with the persisted input FASTQ and the core run manifest it is
// everything a restarted server needs to resume the job.
type Record struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  State  `json:"state"`
	Params Params `json:"params"`

	NumReads   int `json:"numReads"`
	MaxReadLen int `json:"maxReadLen"`
	// DeviceDemandBytes is the device-memory lease this job needs on each
	// device it runs on (core.Config.DeviceDemandBytes; a sharded job
	// leases this much on every shard's device), fixed at submit time so a
	// restarted server admits — and fingerprints — the job identically.
	DeviceDemandBytes int64 `json:"deviceDemandBytes"`
	// Devices lists the fleet device indices the job's current (or last)
	// attempt leased: one entry for an unsharded job, Shards entries for a
	// sharded one. Cleared while the job waits in the queue.
	Devices []int `json:"devices,omitempty"`
	// Preemptions counts how many times a running attempt was drained at a
	// stage commit to make room for a higher-priority job.
	Preemptions int `json:"preemptions,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	// Attempts counts how many times the job entered running; >1 means the
	// job was resumed after a drain or crash.
	Attempts int `json:"attempts"`

	// Stage is the pipeline stage most recently reported by the run's
	// progress callback; StagesDone lists completed stages in order, and
	// CachedStages the ones a resumed attempt replayed from the manifest.
	Stage        string   `json:"stage,omitempty"`
	StagesDone   []string `json:"stagesDone,omitempty"`
	CachedStages []string `json:"cachedStages,omitempty"`

	Error  string         `json:"error,omitempty"`
	Result *ResultSummary `json:"result,omitempty"`

	// Events is the job's flight-recorder history: every lifecycle event
	// the scheduler emitted for it (enqueue, claim, drain, ...), bounded at
	// maxJobRecordEvents with the oldest evicted first. TotalEvents counts
	// every emission, so a gap is detectable.
	Events      []obs.LogEvent `json:"events,omitempty"`
	TotalEvents uint64         `json:"totalEvents,omitempty"`
}

// Job is the scheduler's runtime handle on one record: the record itself
// plus the cancellation and preemption plumbing that never touches disk.
// Per-attempt scheduling state (lane time, drain request time) is the
// scheduler's, held under its lock.
type Job struct {
	mu              sync.Mutex
	rec             Record
	cancel          context.CancelFunc // run context; set when a claim starts
	cancelRequested bool
	// preemptCh is closed when the scheduler asks the running attempt to
	// drain at its next stage commit; replaced with a fresh channel on
	// every preemption requeue so a resumed attempt starts unpreempted.
	preemptCh chan struct{}
}

// NewJob wraps a record for scheduling.
func NewJob(rec Record) *Job { return &Job{rec: rec, preemptCh: make(chan struct{})} }

// Preempted returns a channel closed when the scheduler has asked this
// attempt to drain at its next stage commit. Run functions select on it
// at stage boundaries and return ErrPreempted to hand the device back;
// the scheduler then requeues the job with its committed stages
// resumable.
func (j *Job) Preempted() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.preemptCh
}

// requestPreempt asks the current attempt to drain; the scheduler calls
// it at most once per attempt.
func (j *Job) requestPreempt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	close(j.preemptCh)
}

// resetPreempt arms a fresh preemption channel for the next attempt.
func (j *Job) resetPreempt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.preemptCh = make(chan struct{})
}

// ID returns the job's identifier without cloning the whole record.
func (j *Job) ID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.ID
}

// Record returns a consistent deep copy of the job's record.
func (j *Job) Record() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.clone()
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// CancelRequested reports whether a user cancellation was requested.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// Update mutates the record under the job lock.
func (j *Job) Update(fn func(*Record)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fn(&j.rec)
}

// clone deep-copies the record so readers never share slices or pointers
// with the scheduler's mutating goroutines.
func (r Record) clone() Record {
	c := r
	c.StagesDone = append([]string(nil), r.StagesDone...)
	c.CachedStages = append([]string(nil), r.CachedStages...)
	c.Devices = append([]int(nil), r.Devices...)
	c.Events = append([]obs.LogEvent(nil), r.Events...)
	if r.StartedAt != nil {
		t := *r.StartedAt
		c.StartedAt = &t
	}
	if r.FinishedAt != nil {
		t := *r.FinishedAt
		c.FinishedAt = &t
	}
	if r.Result != nil {
		res := *r.Result
		c.Result = &res
	}
	return c
}

// NewJobID returns a fresh random job identifier ("j" + 12 hex chars).
func NewJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "j" + hex.EncodeToString(b[:])
}
