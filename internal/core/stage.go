package core

import (
	"fmt"
	"path/filepath"

	"repro/internal/obs"
)

// A Stage is one node of the pipeline's stage graph: a named unit of work
// that consumes the previous stage's on-disk artifacts and commits its own
// before the next stage starts. Fresh runs the stage from scratch and
// declares what it left on disk; Cached restores the stage's in-memory
// side effects (counters, derived state) from a committed record when a
// resumed run skips the work.
type Stage struct {
	Name PhaseName
	// Fresh executes the stage and returns its committed outputs.
	Fresh func() (StageOutcome, error)
	// Cached replays a committed stage from its manifest record. It must
	// leave the pipeline in the same in-memory state Fresh would have.
	Cached func(rec StageRecord) error
}

// StageOutcome is what a freshly-run stage commits to the manifest.
type StageOutcome struct {
	// Artifacts lists the stage's output files, relative to the runner's
	// root directory, each with the length and CRC-32C its writer folded
	// (NewArtifact). The commit records them as given: it opens no
	// artifact.
	Artifacts []Artifact
	// Meta carries counters a resumed run needs to restore Result fields.
	Meta map[string]int64
	// Cleanup runs after the manifest commits; it is where a stage deletes
	// its predecessor's consumed inputs. Deferring the deletes until after
	// the commit means a crash mid-stage always leaves the previous
	// stage's artifacts intact and resumable.
	Cleanup func() error
}

// FaultHook is called after each stage commits (manifest written, consumed
// inputs cleaned up). Returning an error aborts the run at exactly the
// point a crash would: the committed stages are resumable, everything
// later never started. Tests use it to exercise kill-and-restart recovery.
type FaultHook func(stage PhaseName) error

// StageRunner executes a fixed sequence of stages, persisting a run
// manifest after each commit and skipping the stages a validated manifest
// already covers.
type StageRunner struct {
	path     string // manifest file
	manifest *Manifest
	resumeAt int // stages before this index replay from the manifest
	pos      int // next stage index to execute
	fault    FaultHook
	cached   []string // names of stages served from the manifest

	// resumeNote records which manifest check settled the resume plan at
	// construction time, so SetObserver can log the decision even though
	// the observer is installed afterwards.
	resumeNote string
	obs        *obs.Observer
	track      obs.Track
	progress   func(stage, event string)
}

// NewStageRunner prepares a runner rooted at dir. When resume is true and
// dir holds a manifest whose version, config hash, and input hash all
// match, the runner plans to skip the manifest's contiguous prefix of
// committed stages — provided the artifacts of the last committed stage
// (the ones the next stage will consume), re-read from disk, still match
// their recorded lengths and CRC-32Cs. Any mismatch, including a corrupted
// or missing artifact, falls back to a full re-run; stale state is never
// trusted.
func NewStageRunner(dir, cfgHash, inputHash string, resume bool, names []PhaseName) *StageRunner {
	r := &StageRunner{
		path: filepath.Join(dir, ManifestName),
		manifest: &Manifest{
			Version:    manifestVersion,
			ConfigHash: cfgHash,
			InputHash:  inputHash,
		},
	}
	if !resume {
		r.resumeNote = "resume disabled"
		return r
	}
	m, err := loadManifest(r.path)
	switch {
	case err != nil:
		r.resumeNote = fmt.Sprintf("no usable manifest: %v", err)
		return r
	case m.Version != manifestVersion:
		r.resumeNote = fmt.Sprintf("unknown manifest version %d (this build writes %d)", m.Version, manifestVersion)
		return r
	case m.ConfigHash != cfgHash:
		r.resumeNote = "config fingerprint changed"
		return r
	case m.InputHash != inputHash:
		r.resumeNote = "input fingerprint changed"
		return r
	}
	// Longest prefix of the planned stage sequence the manifest committed,
	// in order.
	done := 0
	for done < len(names) && done < len(m.Stages) {
		if m.Stages[done].Name != string(names[done]) || m.Stages[done].Status != stageDone {
			break
		}
		done++
	}
	if done == 0 {
		r.resumeNote = "manifest has no committed stage prefix"
		return r
	}
	// Only the resume point's artifacts must still be intact: earlier
	// stages' outputs were legitimately consumed by their successors
	// (e.g. Sort deletes Map's raw partitions after committing).
	if err := validateArtifacts(dir, m.Stages[done-1]); err != nil {
		r.resumeNote = fmt.Sprintf("artifact validation failed: %v", err)
		return r
	}
	m.Stages = m.Stages[:done]
	r.manifest = m
	r.resumeAt = done
	r.resumeNote = fmt.Sprintf("manifest valid, replaying %d committed stage(s)", done)
	return r
}

// ResumeAt reports how many leading stages the runner will replay from the
// manifest instead of executing.
func (r *StageRunner) ResumeAt() int { return r.resumeAt }

// LimitResume lowers the resume point to at most k replayed stages,
// discarding later committed records. The cluster uses it for lockstep
// resume: a stage is skipped only when every node can skip it, so the
// global resume point is the minimum over the per-node plans.
func (r *StageRunner) LimitResume(k int) {
	if k < r.resumeAt {
		r.manifest.Stages = r.manifest.Stages[:k]
		r.resumeAt = k
	}
}

// SetFaultHook installs a post-commit fault injection hook.
func (r *StageRunner) SetFaultHook(h FaultHook) { r.fault = h }

// SetProgress installs the stage-progress callback (Config.Progress); the
// runner delivers the ProgressCached events for replayed stages, which
// never pass through the pipeline's runPhase. May be nil.
func (r *StageRunner) SetProgress(fn func(stage, event string)) { r.progress = fn }

// SetObserver installs the observability sink and the trace track the
// runner's markers land on, and logs the resume decision made at
// construction time (which manifest check passed or failed).
func (r *StageRunner) SetObserver(o *obs.Observer, track obs.Track) {
	r.obs = o
	r.track = track
	if r.resumeAt > 0 {
		o.Log().Info("resume plan", "decision", r.resumeNote, "skip", r.resumeAt)
	} else {
		o.Log().Debug("resume plan", "decision", r.resumeNote)
	}
}

// CachedStages returns the names of stages served from the manifest so
// far, in execution order.
func (r *StageRunner) CachedStages() []string { return r.cached }

// Record returns the committed record of the named stage, if present.
func (r *StageRunner) Record(name PhaseName) (StageRecord, bool) {
	return r.manifest.stageRecordByName(string(name))
}

// Run executes (or replays) the next stage in the sequence. Stages must be
// submitted in the order planned at construction.
func (r *StageRunner) Run(s Stage) error {
	idx := r.pos
	r.pos++
	if idx < r.resumeAt {
		rec := r.manifest.Stages[idx]
		if rec.Name != string(s.Name) {
			return fmt.Errorf("core: stage order mismatch: manifest has %s at %d, pipeline ran %s",
				rec.Name, idx, s.Name)
		}
		if err := s.Cached(rec); err != nil {
			return fmt.Errorf("core: replaying cached stage %s: %w", s.Name, err)
		}
		r.cached = append(r.cached, string(s.Name))
		if r.progress != nil {
			r.progress(string(s.Name), ProgressCached)
		}
		// The cached stage leaves a marker where its span would be, so a
		// resumed run's trace shows the skip instead of a silent gap.
		r.obs.Tracer().Instant(r.track, "marker", "cached: "+string(s.Name),
			map[string]any{"artifacts": len(rec.Artifacts)})
		r.obs.Log().Info("stage skipped (cached)", "stage", string(s.Name),
			"artifacts", len(rec.Artifacts))
		return nil
	}
	out, err := s.Fresh()
	if err != nil {
		return err
	}
	rec := StageRecord{Name: string(s.Name), Status: stageDone, Artifacts: out.Artifacts, Meta: out.Meta}
	r.manifest.Stages = append(r.manifest.Stages, rec)
	if m := r.obs.Metrics(); m != nil {
		snap := m.Snapshot()
		r.manifest.Metrics = &snap
	}
	if err := r.manifest.save(r.path); err != nil {
		return fmt.Errorf("core: committing stage %s: %w", s.Name, err)
	}
	r.obs.Log().Info("stage committed", "stage", string(s.Name),
		"artifacts", len(rec.Artifacts))
	if out.Cleanup != nil {
		if err := out.Cleanup(); err != nil {
			return err
		}
	}
	if r.fault != nil {
		if err := r.fault(s.Name); err != nil {
			return err
		}
	}
	return nil
}
