package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

var errNodeCrash = errors.New("injected node crash")

// TestClusterResumeAfterNodeCrash kills the simulated cluster right after
// one node commits a stage, then restarts it with Resume: every node must
// re-enter from its private storage directory, skip the globally-committed
// stages in lockstep, and produce the same contigs a cold run does.
func TestClusterResumeAfterNodeCrash(t *testing.T) {
	_, reads := testData(t)

	ref, err := New(clusterConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}

	for i, crashAfter := range nodeStages {
		t.Run(fmt.Sprintf("crash_after_%s", crashAfter), func(t *testing.T) {
			cfg := clusterConfig(t, 3)
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl.FaultHook = func(nodeID int, stage core.PhaseName) error {
				// Node 1 dies right after committing the stage; nodes that
				// already passed this point keep their manifests.
				if nodeID == 1 && stage == crashAfter {
					return errNodeCrash
				}
				return nil
			}
			if _, err := cl.Assemble(reads); !errors.Is(err, errNodeCrash) {
				t.Fatalf("interrupted run error = %v, want injected crash", err)
			}

			cfg.Resume = true
			cl2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl2.Assemble(reads)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if len(res.CachedStages) < i+1 {
				t.Errorf("CachedStages = %v, want at least the %d stages committed before the crash",
					res.CachedStages, i+1)
			}
			if res.AcceptedEdges != want.AcceptedEdges || res.CandidateEdges != want.CandidateEdges {
				t.Errorf("edges after resume: %d/%d, cold run %d/%d",
					res.AcceptedEdges, res.CandidateEdges, want.AcceptedEdges, want.CandidateEdges)
			}
			if len(res.Contigs) != len(want.Contigs) {
				t.Fatalf("%d contigs after resume, cold run %d", len(res.Contigs), len(want.Contigs))
			}
			for j := range res.Contigs {
				if !res.Contigs[j].Equal(want.Contigs[j]) {
					t.Fatalf("contig %d differs from cold run", j)
				}
			}
		})
	}
}

// TestClusterResumeInvalidatedByNodeCountChange re-runs an interrupted
// 3-node job as 2 nodes: the per-node fingerprints change, so nothing may
// be replayed from the stale manifests.
func TestClusterResumeInvalidatedByNodeCountChange(t *testing.T) {
	_, reads := testData(t)
	dir := t.TempDir()
	cfg := DefaultConfig(dir, 3)
	cfg.MinOverlap = 30
	cfg.HostBlockPairs = 4096
	cfg.DeviceBlockPairs = 512
	cfg.MapBatchReads = 128
	cfg.InputBlockReads = 64

	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.FaultHook = func(nodeID int, stage core.PhaseName) error {
		if stage == core.PhaseSort && nodeID == 2 {
			return errNodeCrash
		}
		return nil
	}
	if _, err := cl.Assemble(reads); !errors.Is(err, errNodeCrash) {
		t.Fatalf("interrupted run error = %v", err)
	}

	cfg.Nodes = 2
	cfg.Resume = true
	cl2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl2.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Errorf("node-count change still replayed stages %v", res.CachedStages)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs produced")
	}
}

// checkNodeCRCs holds every artifact node id's manifest records for stage
// to the bytes on disk: length and CRC-32C, recomputed with hash/crc32.
func checkNodeCRCs(cfg Config, id int, stage core.PhaseName) error {
	dir := filepath.Join(cfg.Workspace, fmt.Sprintf("node%02d", id))
	raw, err := os.ReadFile(filepath.Join(dir, core.ManifestName))
	if err != nil {
		return err
	}
	var m core.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	for _, rec := range m.Stages {
		if rec.Name != string(stage) {
			continue
		}
		if len(rec.Artifacts) == 0 {
			return fmt.Errorf("node %d: %s committed no artifact", id, stage)
		}
		for _, a := range rec.Artifacts {
			data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(a.Path)))
			if err != nil {
				return err
			}
			crc := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
			if a.Bytes != int64(len(data)) || a.CRC32C != core.Checksum(crc) {
				return fmt.Errorf("node %d: %s artifact %s recorded %d bytes crc %08x, disk has %d bytes crc %08x",
					id, stage, a.Path, a.Bytes, uint32(a.CRC32C), len(data), crc)
			}
		}
		return nil
	}
	return fmt.Errorf("node %d: manifest has no %s record", id, stage)
}

// TestManifestCRCMatchesArtifactBytes stops every node after each stage
// commit and holds the recorded sums — Map's fan-out, the shuffled files,
// the sorted partitions — to the bytes on disk, at one node (where the
// shuffle is a rename carrying Map's sum) and at three. The one-node
// cluster is also crashed after Map and resumed, so the rename's sum comes
// from the replayed Map record.
func TestManifestCRCMatchesArtifactBytes(t *testing.T) {
	_, reads := testData(t)
	run := func(t *testing.T, cfg Config, crashAfter core.PhaseName) []string {
		t.Helper()
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var checked []string
		cl.FaultHook = func(id int, stage core.PhaseName) error {
			if err := checkNodeCRCs(cfg, id, stage); err != nil {
				return err
			}
			mu.Lock()
			checked = append(checked, fmt.Sprintf("%d/%s", id, stage))
			mu.Unlock()
			if stage == crashAfter {
				return errNodeCrash
			}
			return nil
		}
		_, err = cl.Assemble(reads)
		if crashAfter == "" && err != nil || crashAfter != "" && !errors.Is(err, errNodeCrash) {
			t.Fatalf("run crashing after %q: %v", crashAfter, err)
		}
		slices.Sort(checked)
		return checked
	}
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			var want []string
			for id := 0; id < nodes; id++ {
				for _, st := range nodeStages {
					want = append(want, fmt.Sprintf("%d/%s", id, st))
				}
			}
			slices.Sort(want)
			if got := run(t, clusterConfig(t, nodes), ""); !slices.Equal(got, want) {
				t.Fatalf("checked %v, want %v", got, want)
			}
		})
	}
	t.Run("nodes=1/resumed-after-Map", func(t *testing.T) {
		cfg := clusterConfig(t, 1)
		run(t, cfg, core.PhaseMap)
		cfg.Resume = true
		if got := run(t, cfg, ""); !slices.Equal(got, []string{"0/Shuffle", "0/Sort"}) {
			t.Fatalf("resumed run checked %v, want the Shuffle and Sort commits", got)
		}
	})
}
