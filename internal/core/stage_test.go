package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// commitStage runs one fresh stage that declares the given artifacts
// through a runner committing on the given number of workers, and returns
// the manifest bytes it wrote.
func commitStage(t *testing.T, dir string, workers int, artifacts []string) ([]byte, error) {
	t.Helper()
	r := NewStageRunner(dir, "cfg", "input", false, []PhaseName{PhaseMap})
	r.SetWorkers(workers)
	err := r.Run(Stage{Name: PhaseMap, Fresh: func() (StageOutcome, error) {
		return StageOutcome{Artifacts: artifacts, Meta: map[string]int64{"n": int64(len(artifacts))}}, nil
	}})
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, ManifestName))
}

// TestStageCommitIndependentOfWorkers pins the parallel commit: hashing the
// artifacts on several goroutines must write the manifest a serial commit
// writes, byte for byte, and an artifact that cannot be hashed must fail
// the commit — leaving no manifest — whichever goroutine meets it.
func TestStageCommitIndependentOfWorkers(t *testing.T) {
	dir := t.TempDir()
	var artifacts []string
	for i := 0; i < 23; i++ {
		rel := fmt.Sprintf("part_%02d.kv", i)
		data := bytes.Repeat([]byte{byte(i)}, 1+977*i)
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, rel)
	}
	serial, err := commitStage(t, dir, 1, artifacts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4, 64} {
		got, err := commitStage(t, dir, workers, artifacts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, serial) {
			t.Errorf("manifest committed on %d workers differs from the serial one:\n%s\n---\n%s",
				workers, got, serial)
		}
	}

	const k = 17
	if err := os.Remove(filepath.Join(dir, artifacts[k])); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		_, err := commitStage(t, dir, workers, artifacts)
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), artifacts[k]) {
			t.Errorf("%d workers: commit with artifact %d missing returned %v", workers, k, err)
		}
		if _, statErr := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(statErr, fs.ErrNotExist) {
			t.Errorf("%d workers: failed commit left a manifest (stat: %v)", workers, statErr)
		}
	}
}
