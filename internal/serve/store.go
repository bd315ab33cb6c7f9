package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is the job service's on-disk layout, rooted at one data
// directory:
//
//	<root>/jobs/<id>/job.json      job record (atomic rewrite per transition)
//	<root>/jobs/<id>/input.fastq   the submitted reads, verbatim
//	<root>/jobs/<id>/work/         pipeline workspace (manifest, partitions, contigs)
//	<root>/jobs/<id>/result.fasta  final FASTA, installed on success
//
// input.fastq and work/ exist only while the job can still run; terminal
// jobs keep just job.json and (on success) result.fasta. The job record
// plus the work/ manifest are what make kill-and-restart resume possible.
type Store struct {
	root string
}

// recordFile is the job record's file name within a job directory.
const recordFile = "job.json"

// NewStore opens (creating if needed) the data directory.
func NewStore(root string) (*Store, error) {
	st := &Store{root: root}
	if err := os.MkdirAll(st.JobsDir(), 0o755); err != nil {
		return nil, err
	}
	return st, nil
}

// JobsDir returns the directory holding all job directories.
func (st *Store) JobsDir() string { return filepath.Join(st.root, "jobs") }

// JobDir returns the directory of one job.
func (st *Store) JobDir(id string) string { return filepath.Join(st.JobsDir(), id) }

// InputPath returns the job's persisted input FASTQ.
func (st *Store) InputPath(id string) string { return filepath.Join(st.JobDir(id), "input.fastq") }

// WorkDir returns the job's pipeline workspace.
func (st *Store) WorkDir(id string) string { return filepath.Join(st.JobDir(id), "work") }

// ResultPath returns the job's installed FASTA result.
func (st *Store) ResultPath(id string) string { return filepath.Join(st.JobDir(id), "result.fasta") }

// recordPath returns the job's record file.
func (st *Store) recordPath(id string) string { return filepath.Join(st.JobDir(id), recordFile) }

// CreateJob materializes a new job directory — the pipeline workspace
// and an empty input file — and returns the input file for the submission
// to stream into. The record is saved last (Save), once the input is
// complete, so a crash mid-create leaves an orphan directory (swept on the
// next start), never a record pointing at missing input.
func (st *Store) CreateJob(id string) (*os.File, error) {
	if err := os.MkdirAll(st.WorkDir(id), 0o755); err != nil {
		return nil, err
	}
	return os.Create(st.InputPath(id))
}

// Save writes the record atomically (unique tmp + rename), so concurrent
// writers interleave to last-writer-wins and readers never see a torn
// file.
func (st *Store) Save(rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.JobDir(rec.ID), recordFile+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), st.recordPath(rec.ID))
}

// Load reads one job record.
func (st *Store) Load(id string) (Record, error) {
	data, err := os.ReadFile(st.recordPath(id))
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("serve: corrupt record for job %s: %w", id, err)
	}
	return rec, nil
}

// List returns every loadable job record, oldest submission first (ties
// broken by ID) — the order recovery re-enqueues in.
func (st *Store) List() ([]Record, error) {
	ents, err := os.ReadDir(st.JobsDir())
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		rec, err := st.Load(e.Name())
		if err != nil {
			continue // orphan or torn create; Sweep removes it
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, k int) bool {
		if !recs[i].SubmittedAt.Equal(recs[k].SubmittedAt) {
			return recs[i].SubmittedAt.Before(recs[k].SubmittedAt)
		}
		return recs[i].ID < recs[k].ID
	})
	return recs, nil
}

// Remove deletes a job directory entirely (used when a submission is
// rejected after its directory was created).
func (st *Store) Remove(id string) error { return os.RemoveAll(st.JobDir(id)) }

// InstallResult moves the run's FASTA output into its stable location.
func (st *Store) InstallResult(id string) error {
	return os.Rename(filepath.Join(st.WorkDir(id), "contigs.fasta"), st.ResultPath(id))
}

// CleanupWorkspace removes a job's scratch state — the pipeline workspace
// and the persisted input — keeping the record and any installed result.
// Called on every terminal transition, so finished jobs never pin spill
// files or partition directories.
func (st *Store) CleanupWorkspace(id string) error {
	if err := os.RemoveAll(st.WorkDir(id)); err != nil {
		return err
	}
	if err := os.Remove(st.InputPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// SweepScratch removes a job's per-sort spill directories
// (sort_<kind>_<len>) under both the single-device workspace layout
// (work/partitions/) and the sharded per-node layout (work/node*/).
// Called when a preempted or drained attempt hands the job back to the
// queue, and for every resumable job at startup: the next attempt may
// land on different devices, and stale spills from an interrupted sort
// must never leak into it. Sorted partition files and manifests are
// untouched — resume validates those itself.
func (st *Store) SweepScratch(id string) error {
	dirs := []string{filepath.Join(st.WorkDir(id), "partitions")}
	nodes, err := filepath.Glob(filepath.Join(st.WorkDir(id), "node*"))
	if err != nil {
		return err
	}
	dirs = append(dirs, nodes...)
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		for _, e := range ents {
			if e.IsDir() && strings.HasPrefix(e.Name(), "sort_") {
				if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Sweep removes orphaned job state left by crashed runs: directories with
// no parseable record (a crash mid-create) are deleted outright, and
// terminal jobs that crashed between their final record write and their
// workspace cleanup get the cleanup finished now. Resumable jobs get
// their sort scratch swept (SweepScratch) so a crashed attempt's spills
// never leak into the resumed one. Returns how many job directories were
// repaired or removed.
func (st *Store) Sweep(log *slog.Logger) (int, error) {
	ents, err := os.ReadDir(st.JobsDir())
	if err != nil {
		return 0, err
	}
	swept := 0
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		rec, err := st.Load(id)
		if err != nil {
			log.Warn("sweeping orphaned job dir", "job", id, "err", err)
			if err := os.RemoveAll(st.JobDir(id)); err != nil {
				return swept, err
			}
			swept++
			continue
		}
		if rec.State.Terminal() {
			if _, err := os.Stat(st.WorkDir(id)); err == nil {
				log.Warn("sweeping leftover workspace of terminal job", "job", id, "state", rec.State)
				if err := st.CleanupWorkspace(id); err != nil {
					return swept, err
				}
				swept++
			}
			continue
		}
		if err := st.SweepScratch(id); err != nil {
			return swept, err
		}
	}
	return swept, nil
}
