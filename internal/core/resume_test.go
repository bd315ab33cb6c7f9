package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/kv"
)

// errInjectedCrash simulates the process dying right after a stage commit.
var errInjectedCrash = errors.New("injected crash")

// crashAfter is the FaultHook of a process that dies right after stage
// commits.
func crashAfter(stage PhaseName) FaultHook {
	return func(s PhaseName) error {
		if s == stage {
			return errInjectedCrash
		}
		return nil
	}
}

// coldContigs runs the pipeline cold in its own workspace and returns the
// reference FASTA bytes a resumed run must reproduce exactly.
func coldContigs(t *testing.T, mutate func(*Config)) []byte {
	t.Helper()
	cfg := smallConfig(t)
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(testResumeReads(t))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testResumeReads(t *testing.T) *dna.ReadSet {
	t.Helper()
	_, reads := testGenomeReads(t, 2000, 48, 10)
	return reads
}

func TestResumeAfterEachStage(t *testing.T) {
	want := coldContigs(t, nil)
	reads := testResumeReads(t)

	stages := []PhaseName{PhaseMap, PhaseSort, PhaseReduce, PhaseCompress}
	for i, crashed := range stages {
		t.Run(fmt.Sprintf("crash_after_%s", crashed), func(t *testing.T) {
			cfg := smallConfig(t)

			// First run: crash immediately after the stage commits.
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.FaultHook = crashAfter(crashed)
			if _, err := p.Assemble(reads); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("interrupted run error = %v, want injected crash", err)
			}

			// Second run: same config + Resume resumes from the manifest.
			cfg.Resume = true
			p2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p2.Assemble(reads)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if len(res.CachedStages) != i+1 {
				t.Fatalf("CachedStages = %v, want the %d committed stages", res.CachedStages, i+1)
			}
			for j := 0; j <= i; j++ {
				if res.CachedStages[j] != string(stages[j]) {
					t.Fatalf("CachedStages = %v, want prefix of %v", res.CachedStages, stages)
				}
			}
			got, err := os.ReadFile(res.ContigPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("resumed output differs from cold run")
			}
		})
	}
}

func TestResumeFullyCachedRun(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(first.ContigPath)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != len(pipelineStages) {
		t.Fatalf("CachedStages = %v, want all %d stages", res.CachedStages, len(pipelineStages))
	}
	got, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("fully-cached rerun changed the output")
	}
	if res.AcceptedEdges != first.AcceptedEdges || res.CandidateEdges != first.CandidateEdges ||
		res.SortDiskPasses != first.SortDiskPasses {
		t.Errorf("cached counters differ: %+v vs %+v", res, first)
	}
}

func TestResumeInvalidatedByConfigChange(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(reads); err != nil {
		t.Fatal(err)
	}

	// Any output-relevant config change must invalidate the manifest.
	cfg.Resume = true
	cfg.MinOverlap = 33
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("changed config still replayed stages %v", res.CachedStages)
	}
}

func TestResumeInvalidatedByInputChange(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(reads); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	_, other := testGenomeReads(t, 2100, 48, 10)
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(other)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("changed input still replayed stages %v", res.CachedStages)
	}
}

// TestResumeInvalidatedByCorruptArtifact corrupts one committed sorted
// partition without changing its length — its first byte, or one bit in
// its middle — so only the recorded CRC-32C can tell: resume must fall back
// to a full, correct re-run.
func TestResumeInvalidatedByCorruptArtifact(t *testing.T) {
	want := coldContigs(t, nil)
	reads := testResumeReads(t)
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte)
	}{
		{"first-byte", func(data []byte) { data[0] ^= 0xff }},
		{"one-bit-mid-file", func(data []byte) { data[len(data)/2] ^= 0x10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(t)
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.FaultHook = crashAfter(PhaseSort)
			if _, err := p.Assemble(reads); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("interrupted run error = %v", err)
			}

			partDir := filepath.Join(cfg.Workspace, "partitions")
			entries, err := os.ReadDir(partDir)
			if err != nil {
				t.Fatal(err)
			}
			corrupted := false
			for _, e := range entries {
				if filepath.Ext(e.Name()) != ".sorted" {
					continue
				}
				path := filepath.Join(partDir, e.Name())
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) == 0 {
					continue
				}
				tc.corrupt(data)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				corrupted = true
				break
			}
			if !corrupted {
				t.Fatal("no sorted partition found to corrupt")
			}

			cfg.Resume = true
			p2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p2.Assemble(reads)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.CachedStages) != 0 {
				t.Fatalf("corrupted artifact still replayed stages %v", res.CachedStages)
			}
			got, err := os.ReadFile(res.ContigPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("re-run after corruption differs from cold run")
			}
		})
	}
}

// TestResumeRerunsVersion1Manifest rewrites a committed manifest the way
// the previous schema spelt it — version 1, a SHA-256 per artifact, no
// CRC-32C — over artifacts that are intact: resume refuses it as an
// unknown version and the clean rerun writes the cold run's FASTA.
func TestResumeRerunsVersion1Manifest(t *testing.T) {
	want := coldContigs(t, nil)
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.FaultHook = crashAfter(PhaseSort)
	if _, err := p.Assemble(reads); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("interrupted run error = %v", err)
	}

	path := filepath.Join(cfg.Workspace, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["version"] = 1
	for _, st := range doc["stages"].([]any) {
		for _, a := range st.(map[string]any)["artifacts"].([]any) {
			art := a.(map[string]any)
			delete(art, "crc32c")
			data, err := os.ReadFile(filepath.Join(cfg.Workspace, art["path"].(string)))
			if errors.Is(err, fs.ErrNotExist) {
				continue // consumed by the next stage
			}
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			art["sha256"] = hex.EncodeToString(sum[:])
		}
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewStageRunner(cfg.Workspace, cfg.Fingerprint(), InputFingerprint(reads), true, pipelineStages)
	if r.ResumeAt() != 0 || !strings.Contains(r.resumeNote, "unknown manifest version") {
		t.Fatalf("version-1 manifest planned resume at %d (%q), want a clean rerun for an unknown version",
			r.ResumeAt(), r.resumeNote)
	}
	cfg.Resume = true
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("version-1 manifest replayed stages %v", res.CachedStages)
	}
	got, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("rerun over a version-1 manifest differs from cold run")
	}
}

// checkManifestCRCs recomputes, from disk and with hash/crc32 alone, the
// CRC-32C and length of every artifact the manifest at dir records for
// stage, and reports any that differs from the record.
func checkManifestCRCs(dir string, stage PhaseName) error {
	m, err := loadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		return err
	}
	rec, ok := m.stageRecordByName(string(stage))
	if !ok || len(rec.Artifacts) == 0 {
		return fmt.Errorf("manifest has no artifacts for %s", stage)
	}
	for _, a := range rec.Artifacts {
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(a.Path)))
		if err != nil {
			return err
		}
		crc := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
		if a.Bytes != int64(len(data)) || a.CRC32C != Checksum(crc) {
			return fmt.Errorf("%s artifact %s recorded %d bytes crc %08x, disk has %d bytes crc %08x",
				stage, a.Path, a.Bytes, uint32(a.CRC32C), len(data), crc)
		}
	}
	return nil
}

// TestManifestCRCMatchesArtifactBytes stops every backend's run after each
// stage commit, at one and at four workers, and holds each recorded
// artifact's length and CRC-32C — folded by its writer, never read back —
// to the bytes on disk: partitions written by Map's fan-out, the sorted
// partitions renamed out of extsort (its last run at one pass, its last
// merge at several), edges.kv and the FASTA.
func TestManifestCRCMatchesArtifactBytes(t *testing.T) {
	reads := testResumeReads(t)
	for _, backend := range Backends {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
				cfg := smallConfig(t)
				cfg.GraphBackend = backend
				cfg.Workers = workers
				if workers > 1 {
					cfg.HostBlockPairs, cfg.DeviceBlockPairs = 128, 32 // several passes
				}
				cfg.KeepIntermediate = true
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var checked []PhaseName
				p.FaultHook = func(stage PhaseName) error {
					checked = append(checked, stage)
					return checkManifestCRCs(cfg.Workspace, stage)
				}
				if _, err := p.Assemble(reads); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(checked) != fmt.Sprint(pipelineStages) {
					t.Fatalf("checked stages %v, want %v", checked, pipelineStages)
				}
			})
		}
	}
}

func TestResumeWithoutManifestRunsCold(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	cfg.Resume = true // nothing to resume from: must behave like a cold run
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("CachedStages = %v on an empty workspace", res.CachedStages)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs produced")
	}
}

// sortScratchSnapshot is a device hook that photographs the sort_* scratch
// directories at a kernel charge while a file matching inFlight exists
// under partDir — some sort is then in the middle of a merge round, with
// runs and a half-written merge on disk — and then calls stop, if set. A
// sort can finish, or a merge round consume its runs, while the photograph
// is taken; one that lost a file with any of the leftovers prefixes is
// retaken at a later charge.
// The photograph is what a killed process would leave: a cancelled run
// removes its scratch on the way out, a dead one cannot.
type sortScratchSnapshot struct {
	partDir, snapDir string
	inFlight         string   // glob under partDir
	leftovers        []string // file-name prefixes a photograph must hold
	stop             func()

	mu    sync.Mutex // held while photographing
	taken atomic.Bool
	err   error // read after the run returns
}

func (h *sortScratchSnapshot) KernelLaunch(int, time.Time, time.Duration)        {}
func (h *sortScratchSnapshot) AllocWaited(int64, time.Time, time.Duration)       {}
func (h *sortScratchSnapshot) StreamOp(string, string, time.Time, time.Duration) {}
func (h *sortScratchSnapshot) KernelCharge(int64, int64) {
	if h.taken.Load() || !h.mu.TryLock() {
		return // photographed, or the other worker is at it
	}
	defer h.mu.Unlock()
	if m, _ := filepath.Glob(filepath.Join(h.partDir, h.inFlight)); len(m) == 0 {
		return
	}
	if h.err = h.snapshot(); h.err != nil {
		return
	}
	for _, prefix := range h.leftovers {
		if m, _ := filepath.Glob(filepath.Join(h.snapDir, "*", prefix+"*")); len(m) == 0 {
			return
		}
	}
	h.taken.Store(true)
	if h.stop != nil {
		h.stop()
	}
}

func (h *sortScratchSnapshot) snapshot() error {
	if err := os.RemoveAll(h.snapDir); err != nil {
		return err
	}
	dirs, err := filepath.Glob(filepath.Join(h.partDir, "sort_*"))
	if err != nil {
		return err
	}
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if errors.Is(err, fs.ErrNotExist) {
			continue // the other worker's sort finished and removed it
		}
		if err != nil {
			return err
		}
		dst := filepath.Join(h.snapDir, filepath.Base(d))
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(d, e.Name()))
			if errors.Is(err, fs.ErrNotExist) {
				continue // the other worker's sort unlinked it meanwhile
			}
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// restoreGarbled puts the photographed scratch back under partDir the way a
// crash that lost the page cache would have left it — no scratch file is
// ever fsynced — with every file cut short mid-record and its surviving
// bytes flipped. It returns the restored file names.
func (h *sortScratchSnapshot) restoreGarbled(t *testing.T) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(h.snapDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		keep := len(data) / 2 / kv.PairBytes * kv.PairBytes
		if keep+7 <= len(data) {
			keep += 7 // end mid-record
		}
		data = data[:keep]
		for i := range data {
			data[i] ^= 0xa5
		}
		rel, _ := filepath.Rel(h.snapDir, path)
		dst := filepath.Join(h.partDir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		names = append(names, rel)
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestResumeIgnoresUnsyncedSortScratch kills multi-pass runs in the middle
// of a merge round — by cancellation, and by a crash right after the stage
// that owned the scratch commits (its unlinks are no more durable than its
// writes) — restores the sort_* leftovers with torn, garbled contents, and
// resumes. Nothing may change: FASTA byte-identical to a cold run, counters
// and modeled time identical to resuming the same crash from a clean
// workspace, no sort_* left. This held before scratch writes stopped being
// fsynced and is the reason they could: resume sweeps those directories and
// re-sorts from committed partitions, it never reads them.
func TestResumeIgnoresUnsyncedSortScratch(t *testing.T) {
	reads := testResumeReads(t)
	cases := []struct {
		name      string
		backend   string
		inFlight  string
		cancel    bool      // kill by cancellation at the snapshot, else by FaultHook
		committed PhaseName // last stage the killed run committed
		leftovers []string  // file-name prefixes the scratch must hold
	}{
		{"greedy/cancel-mid-sort", BackendGreedy, "sort_?fx_*/merge_*.kv", true, PhaseMap,
			[]string{"run_", "merge_"}},
		{"greedy/crash-after-sort", BackendGreedy, "sort_?fx_*/merge_*.kv", false, PhaseSort,
			[]string{"run_", "merge_"}},
		{"succinct/cancel-mid-reduce", BackendSuccinct, "sort_succinct/merge_*.kv", true, PhaseSort,
			[]string{"cand.kv", "run_", "merge_"}},
		{"succinct/crash-after-reduce", BackendSuccinct, "sort_succinct/merge_*.kv", false, PhaseReduce,
			[]string{"cand.kv", "run_", "merge_"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			multiPass := func(cfg *Config) {
				cfg.GraphBackend = tc.backend
				cfg.HostBlockPairs, cfg.DeviceBlockPairs = 128, 32 // ~7 runs per partition
				cfg.Workers = 2
			}
			resume := func(cfg Config) *Result {
				t.Helper()
				cfg.Resume = true
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Assemble(reads)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				return res
			}
			want := coldContigs(t, multiPass)

			// Reference: the same crash point, resumed from a clean workspace.
			refCfg := smallConfig(t)
			multiPass(&refCfg)
			p, err := New(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			p.FaultHook = crashAfter(tc.committed)
			if _, err := p.Assemble(reads); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("reference run error = %v, want injected crash", err)
			}
			ref := resume(refCfg)

			cfg := smallConfig(t)
			multiPass(&cfg)
			if p, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			snap := &sortScratchSnapshot{partDir: filepath.Join(cfg.Workspace, "partitions"),
				snapDir: t.TempDir(), inFlight: tc.inFlight, leftovers: tc.leftovers}
			wantErr := errInjectedCrash
			if tc.cancel {
				snap.stop, wantErr = cancel, context.Canceled
			} else {
				p.FaultHook = crashAfter(tc.committed)
			}
			p.Device().SetHooks(snap)
			if _, err := p.AssembleContext(ctx, reads); !errors.Is(err, wantErr) {
				t.Fatalf("killed run error = %v, want %v", err, wantErr)
			}
			if !snap.taken.Load() || snap.err != nil {
				t.Fatalf("no scratch photographed mid-merge (err %v)", snap.err)
			}
			left := snap.restoreGarbled(t)
			for _, prefix := range tc.leftovers {
				found := false
				for _, name := range left {
					found = found || strings.HasPrefix(filepath.Base(name), prefix)
				}
				if !found {
					t.Fatalf("leftovers %v hold no %s* file", left, prefix)
				}
			}

			res := resume(cfg)
			if fmt.Sprint(res.CachedStages) != fmt.Sprint(ref.CachedStages) {
				t.Fatalf("CachedStages = %v, the clean resume's %v", res.CachedStages, ref.CachedStages)
			}
			got, err := os.ReadFile(res.ContigPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Error("resumed output differs from cold run")
			}
			if res.Counters != ref.Counters || res.TotalModeled != ref.TotalModeled {
				t.Errorf("resume over stale scratch cost %+v / %v, over a clean workspace %+v / %v",
					res.Counters, res.TotalModeled, ref.Counters, ref.TotalModeled)
			}
			if stale, _ := filepath.Glob(filepath.Join(snap.partDir, "sort_*")); len(stale) != 0 {
				t.Errorf("resume left scratch behind: %v", stale)
			}
		})
	}
}
