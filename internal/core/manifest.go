package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/dna"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// manifestVersion guards the on-disk schema: a manifest written by an
// incompatible build never validates, forcing a clean re-run. Version 1
// recorded a SHA-256 per artifact, version 2 the writer's CRC-32C.
const manifestVersion = 2

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

// Artifact describes one output file as the code that wrote it left it:
// the length and CRC-32C its writer folded (kvio.Sum), so a commit reads
// nothing back.
type Artifact struct {
	Path   string   `json:"path"` // relative to the manifest's root dir
	Bytes  int64    `json:"bytes"`
	CRC32C Checksum `json:"crc32c"`
}

// NewArtifact records the file at rel, relative to the manifest's root
// dir, with the sum its writer folded.
func NewArtifact(rel string, s kvio.Sum) Artifact {
	return Artifact{Path: filepath.ToSlash(rel), Bytes: s.Bytes, CRC32C: Checksum(s.CRC32C)}
}

// Sum is the recorded length and CRC-32C.
func (a Artifact) Sum() kvio.Sum { return kvio.Sum{Bytes: a.Bytes, CRC32C: uint32(a.CRC32C)} }

// Checksum is a CRC-32C, spelt in a manifest as 8 hex digits.
type Checksum uint32

// MarshalText spells c as 8 lower-case hex digits.
func (c Checksum) MarshalText() ([]byte, error) { return fmt.Appendf(nil, "%08x", uint32(c)), nil }

// UnmarshalText reads c from 8 hex digits.
func (c *Checksum) UnmarshalText(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("core: checksum %q is not 8 hex digits", b)
	}
	v, err := strconv.ParseUint(string(b), 16, 32)
	*c = Checksum(v)
	return err
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

// validateArtifacts re-reads every artifact of a committed stage and
// reports the first that is missing or whose length or CRC-32C differs
// from the one recorded at commit. It is the only code that reads an
// artifact to check it.
func validateArtifacts(root string, rec StageRecord) error {
	for _, a := range rec.Artifacts {
		got, err := kvio.SumFile(filepath.Join(root, filepath.FromSlash(a.Path)))
		if err != nil {
			return fmt.Errorf("core: stage %s artifact %s: %w", rec.Name, a.Path, err)
		}
		if got != a.Sum() {
			return fmt.Errorf("core: stage %s artifact %s changed since commit", rec.Name, a.Path)
		}
	}
	return nil
}

// Fingerprint hashes the output-relevant configuration: every knob that
// changes the bytes any stage writes. Execution knobs (Workers, Workspace,
// KeepIntermediate, Resume, Obs, Progress) are deliberately
// excluded — they may differ between the interrupted run and the resumed
// one. A cluster node's manifest hashes this plus its cluster geometry.
func (c Config) Fingerprint() string {
	h := sha256.New()
	// "v1" is the manifest version this spelling was introduced with; it
	// stays when the version moves, as fg= and ptrav= stay below, because a
	// schema change is the version check's business, not the config's.
	fmt.Fprintf(h, "v1|min=%d|mh=%d|md=%d|mb=%d|gpu=%s/%d",
		c.MinOverlap, c.HostBlockPairs, c.DeviceBlockPairs,
		c.MapBatchReads, c.GPU.Name, c.GPU.MemBytes)
	// The spelling dates from when the full string graph was a flag of its
	// own (fg=) and two ablation switches sat in Config (ptrav=, naive=):
	// those terms are constants now, kept byte for byte so existing
	// manifests still resume.
	fmt.Fprintf(h, "|sing=%t|cyc=%t|fg=false|fuzz=%d|ptrav=false|pack=%t|dedupe=%t|naive=false|verify=%t",
		c.IncludeSingletons, c.BreakCycles, c.TransitiveFuzz,
		c.PackedReads, c.DedupeReads, c.VerifyOverlaps)
	// The resolved backend, not the raw knob: "" and "greedy" must
	// fingerprint identically because they produce identical bytes.
	fmt.Fprintf(h, "|backend=%s", c.backend())
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
