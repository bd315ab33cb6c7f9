package core

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/kv"
	"repro/internal/kvio"
)

// TestStageCommitOpensNoArtifact pins that a commit records the sums the
// stage's writers folded and reads nothing back: an artifact unlinked, and
// one overwritten, between the writer's Close and the commit still commit
// with what their writers wrote, and the manifest spells each CRC-32C as 8
// hex digits equal to the checksum of those bytes.
func TestStageCommitOpensNoArtifact(t *testing.T) {
	dir := t.TempDir()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var want []Artifact
	var crcs []uint32
	fresh := func() (StageOutcome, error) {
		var out StageOutcome
		for i := 0; i < 5; i++ {
			rel := fmt.Sprintf("part_%02d.kv", i)
			w, err := kvio.NewWriter(filepath.Join(dir, rel), nil)
			if err != nil {
				return out, err
			}
			for j := 0; j < 1+4099*i; j++ { // up to 2.5 codec blocks
				if err := w.Write(kv.Pair{Key: kv.Key{Hi: uint64(i), Lo: uint64(j)}, Val: uint32(j)}); err != nil {
					return out, err
				}
			}
			if err := w.Close(); err != nil {
				return out, err
			}
			data, err := os.ReadFile(filepath.Join(dir, rel))
			if err != nil {
				return out, err
			}
			crcs = append(crcs, crc32.Checksum(data, castagnoli))
			out.Artifacts = append(out.Artifacts, NewArtifact(rel, w.Sum()))
		}
		want = out.Artifacts
		if err := os.Remove(filepath.Join(dir, "part_01.kv")); err != nil {
			return out, err
		}
		return out, os.WriteFile(filepath.Join(dir, "part_03.kv"), []byte("not what was written"), 0o644)
	}
	r := NewStageRunner(dir, "cfg", "input", false, []PhaseName{PhaseMap})
	if err := r.Run(Stage{Name: PhaseMap, Fresh: fresh}); err != nil {
		t.Fatalf("commit after an artifact was unlinked: %v", err)
	}
	rec, ok := r.Record(PhaseMap)
	if !ok || len(rec.Artifacts) != len(want) {
		t.Fatalf("committed record %+v, want %d artifacts", rec, len(want))
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int `json:"version"`
		Stages  []struct {
			Artifacts []map[string]any `json:"artifacts"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != manifestVersion || len(doc.Stages) != 1 {
		t.Fatalf("manifest version %d with %d stages, want %d with 1", doc.Version, len(doc.Stages), manifestVersion)
	}
	hex8 := regexp.MustCompile(`^[0-9a-f]{8}$`)
	for i, a := range doc.Stages[0].Artifacts {
		if _, old := a["sha256"]; old {
			t.Errorf("artifact %d still carries a sha256 field: %v", i, a)
		}
		spelt, _ := a["crc32c"].(string)
		if !hex8.MatchString(spelt) || spelt != fmt.Sprintf("%08x", crcs[i]) {
			t.Errorf("artifact %d crc32c = %q, want %08x", i, spelt, crcs[i])
		}
		if rec.Artifacts[i] != want[i] || rec.Artifacts[i].CRC32C != Checksum(crcs[i]) {
			t.Errorf("artifact %d committed as %+v, its writer summed %+v", i, rec.Artifacts[i], want[i])
		}
	}

	// The record round-trips through the manifest, and resume — the one
	// reader — refuses the stage whose artifacts no longer match.
	m, err := loadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(m.Stages[0].Artifacts) != fmt.Sprint(want) {
		t.Errorf("reloaded artifacts %v, want %v", m.Stages[0].Artifacts, want)
	}
	if r2 := NewStageRunner(dir, "cfg", "input", true, []PhaseName{PhaseMap}); r2.ResumeAt() != 0 {
		t.Errorf("resume replays a stage whose artifact was unlinked (%s)", r2.resumeNote)
	}
}
