package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dna"
	"repro/internal/obs"
)

// manifestVersion guards the on-disk schema: a manifest written by an
// incompatible build never validates, forcing a clean re-run.
const manifestVersion = 1

// ManifestName is the run-manifest file name within a workspace (or a
// cluster node's private storage directory).
const ManifestName = "manifest.json"

// Manifest is the persistent record of one assembly run's progress: which
// stages have committed, what artifacts they left on disk, and the
// configuration and input they are only valid for. It is rewritten
// atomically after every stage commit, which is what makes mid-pipeline
// resume (Config.Resume) sound: a crash leaves either the pre-stage or the
// post-stage manifest, never a torn one.
type Manifest struct {
	Version    int           `json:"version"`
	ConfigHash string        `json:"configHash"`
	InputHash  string        `json:"inputHash"`
	Stages     []StageRecord `json:"stages"`
	// Metrics is the observability registry snapshot as of the last stage
	// commit; absent when the run had no metrics registry. Informational
	// only — resume validation never reads it.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// StageRecord is one committed stage.
type StageRecord struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	// Artifacts lists the stage's on-disk outputs, workspace-relative.
	// Later stages may consume (delete) them; resume validation only
	// checks the artifacts of the stage it re-enters after.
	Artifacts []Artifact `json:"artifacts,omitempty"`
	// Meta carries the counters a resumed run must restore without
	// re-doing the work (disk passes, edge counts, ...).
	Meta map[string]int64 `json:"meta,omitempty"`
}

// Artifact describes one output file at commit time.
type Artifact struct {
	Path   string `json:"path"` // relative to the manifest's root dir
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

const stageDone = "done"

// stageRecordByName returns the named stage record, if committed.
func (m *Manifest) stageRecordByName(name string) (StageRecord, bool) {
	for _, s := range m.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageRecord{}, false
}

// save writes the manifest atomically (tmp + rename) so readers never see
// a torn file.
func (m *Manifest) save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadManifest reads a manifest; a missing or unparsable file is an error
// (callers treat any error as "start from scratch").
func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: corrupt manifest %s: %w", path, err)
	}
	return &m, nil
}

// describeArtifact stats and checksums one artifact file. rel must be
// relative to root.
func describeArtifact(root, rel string) (Artifact, error) {
	full := filepath.Join(root, rel)
	f, err := os.Open(full)
	if err != nil {
		return Artifact{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return Artifact{}, err
	}
	return Artifact{Path: filepath.ToSlash(rel), Bytes: n, SHA256: hex.EncodeToString(h.Sum(nil))}, nil
}

// describeArtifacts checksums a stage's artifacts on up to workers
// goroutines. Each result lands at its artifact's index, so the record — and
// the manifest bytes — do not depend on workers; of several failures the
// one at the lowest index is reported.
func describeArtifacts(root string, rels []string, workers int) ([]Artifact, error) {
	arts := make([]Artifact, len(rels))
	err := runTasks(workers, len(rels), func(_, i int) (err error) {
		arts[i], err = describeArtifact(root, rels[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return arts, nil
}

// validateArtifacts re-checksums every artifact of a committed stage and
// reports the first mismatch (missing file, size drift, content drift).
func validateArtifacts(root string, rec StageRecord) error {
	for _, a := range rec.Artifacts {
		got, err := describeArtifact(root, filepath.FromSlash(a.Path))
		if err != nil {
			return fmt.Errorf("core: stage %s artifact %s: %w", rec.Name, a.Path, err)
		}
		if got.Bytes != a.Bytes || got.SHA256 != a.SHA256 {
			return fmt.Errorf("core: stage %s artifact %s changed since commit", rec.Name, a.Path)
		}
	}
	return nil
}

// Fingerprint hashes the output-relevant configuration: every knob that
// changes the bytes any stage writes. Execution knobs (Workers, Workspace,
// KeepIntermediate, Resume, Streams, Obs, Progress) are deliberately
// excluded — they may differ between the interrupted run and the resumed
// one. A cluster node's manifest hashes this plus its cluster geometry.
func (c Config) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|min=%d|mh=%d|md=%d|mb=%d|gpu=%s/%d",
		manifestVersion, c.MinOverlap, c.HostBlockPairs, c.DeviceBlockPairs,
		c.MapBatchReads, c.GPU.Name, c.GPU.MemBytes)
	// The spelling predates BackendFull, when the full graph was a flag of
	// its own beside a greedy GraphBackend and two ablation switches sat in
	// Config: it is kept byte for byte (fg=, backend=greedy for full, and
	// the constant ptrav/naive terms) so existing manifests still resume.
	full := c.backend() == BackendFull
	fmt.Fprintf(h, "|sing=%t|cyc=%t|fg=%t|fuzz=%d|ptrav=false|pack=%t|dedupe=%t|naive=false|verify=%t",
		c.IncludeSingletons, c.BreakCycles, full, c.TransitiveFuzz,
		c.PackedReads, c.DedupeReads, c.VerifyOverlaps)
	// The resolved backend, not the raw knob: "" and "greedy" must
	// fingerprint identically because they produce identical bytes.
	backend := c.backend()
	if full {
		backend = BackendGreedy
	}
	fmt.Fprintf(h, "|backend=%s", backend)
	return hex.EncodeToString(h.Sum(nil))
}

// InputFingerprint hashes the read set a run consumes, so a manifest can
// never resume over different input data. The cluster layer shares it for
// its per-node manifests.
func InputFingerprint(rs dna.ReadSource) string {
	h := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(rs.NumReads()))
	h.Write(hdr[:])
	for r := 0; r < rs.NumReads(); r++ {
		seq := rs.Read(uint32(r))
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(seq)))
		h.Write(hdr[:])
		h.Write([]byte(seq))
	}
	return hex.EncodeToString(h.Sum(nil))
}
