package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/obs"
)

// withDuplicates is testData's reads plus a second copy of every fifth
// read, so read deduplication has work to do.
func withDuplicates(t *testing.T) *dna.ReadSet {
	t.Helper()
	_, reads := testData(t)
	out := dna.NewReadSet(reads.NumReads(), reads.MaxLen())
	for i := 0; i < reads.NumReads(); i++ {
		out.Append(reads.Read(uint32(i)))
	}
	for i := 0; i < reads.NumReads(); i += 5 {
		out.Append(reads.Read(uint32(i)))
	}
	return out
}

// TestClusterRunsEveryKnob is the differential table for the knobs the
// cluster once lacked: on {1, 3} nodes, a cluster run with the knob writes
// the same FASTA bytes, counts, read-preparation numbers and sort disk
// passes as the single-node run of the same core.Config.
func TestClusterRunsEveryKnob(t *testing.T) {
	reads := withDuplicates(t)
	knobs := []struct {
		name string
		set  func(*core.Config)
	}{
		{"VerifyOverlaps", func(c *core.Config) { c.VerifyOverlaps = true }},
		{"DedupeReads", func(c *core.Config) { c.DedupeReads = true }},
		{"PackedReads", func(c *core.Config) { c.PackedReads = true }},
		{"KeepIntermediate", func(c *core.Config) { c.KeepIntermediate = true }},
	}
	for _, knob := range knobs {
		base := clusterConfig(t, 1)
		knob.set(&base.Config)
		single := base.Config
		single.Workspace = t.TempDir()
		p, err := core.New(single)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := p.Assemble(reads)
		if err != nil {
			t.Fatalf("%s single node: %v", knob.name, err)
		}
		want, err := os.ReadFile(sres.ContigPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{1, 3} {
			cell := fmt.Sprintf("%s nodes=%d", knob.name, nodes)
			cfg := base
			cfg.Workspace = t.TempDir()
			cfg.Nodes = nodes
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Assemble(reads)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if got, err := os.ReadFile(res.ContigPath); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: FASTA differs from the single-node run's (err %v)", cell, err)
			}
			type counts struct {
				Reads, Dups, Parts                                   int
				Pairs, Candidates, Accepted, Reduced, FalsePositives int64
			}
			got := counts{res.NumReads, res.DuplicatesRemoved, res.Partitions, res.PairsGenerated,
				res.CandidateEdges, res.AcceptedEdges, res.ReducedEdges, res.FalsePositives}
			ref := counts{sres.NumReads, sres.DuplicatesRemoved, sres.Partitions, sres.PairsGenerated,
				sres.CandidateEdges, sres.AcceptedEdges, sres.ReducedEdges, sres.FalsePositives}
			if got != ref {
				t.Errorf("%s: counts %+v, single node %+v", cell, got, ref)
			}
			if res.SortDiskPasses != sres.SortDiskPasses {
				t.Errorf("%s: %d sort disk passes, single node %d", cell, res.SortDiskPasses, sres.SortDiskPasses)
			}
		}
		if knob.name == "DedupeReads" && sres.DuplicatesRemoved == 0 {
			t.Error("DedupeReads removed nothing: the table does not exercise it")
		}
	}
}

// TestClusterProgressEvents: Progress hears each cluster phase once, in
// order — start then done, failed where the run broke — and a resumed run
// reports the stages it replayed as cached.
func TestClusterProgressEvents(t *testing.T) {
	_, reads := testData(t)
	var events []string
	cfg := clusterConfig(t, 3)
	cfg.Progress = func(stage, event string) { events = append(events, stage+":"+event) }
	phases := func(names []core.PhaseName, events ...string) (out []string) {
		for _, n := range names {
			for _, e := range events {
				out = append(out, string(n)+":"+e)
			}
		}
		return out
	}

	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	all := []core.PhaseName{core.PhaseMap, PhaseShuffle, core.PhaseSort, core.PhaseReduce, core.PhaseCompress}
	if want := phases(all, core.ProgressStart, core.ProgressDone); !slices.Equal(events, want) {
		t.Errorf("fresh run events %v, want %v", events, want)
	}

	events = nil
	cfg.Workspace = t.TempDir()
	if cl, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	cl.FaultHook = func(nodeID int, stage core.PhaseName) error {
		if nodeID == 1 && stage == core.PhaseSort {
			return errNodeCrash
		}
		return nil
	}
	if _, err := cl.Assemble(reads); !errors.Is(err, errNodeCrash) {
		t.Fatalf("interrupted run error = %v, want injected crash", err)
	}
	want := append(phases(nodeStages[:2], core.ProgressStart, core.ProgressDone),
		phases(nodeStages[2:], core.ProgressStart, core.ProgressFailed)...)
	if !slices.Equal(events, want) {
		t.Errorf("interrupted run events %v, want %v", events, want)
	}

	events = nil
	cfg.Resume = true
	if cl, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	want = append(phases(nodeStages, core.ProgressCached),
		phases(all[3:], core.ProgressStart, core.ProgressDone)...)
	if !slices.Equal(events, want) {
		t.Errorf("resumed run events %v, want %v", events, want)
	}
}

// TestClusterKeepIntermediate: like a single node, a finished cluster run
// leaves no partition files in its nodes' directories unless
// KeepIntermediate is set — and then a resumed run replays every
// checkpointed stage from them.
func TestClusterKeepIntermediate(t *testing.T) {
	_, reads := testData(t)
	for _, keep := range []bool{false, true} {
		cfg := clusterConfig(t, 3)
		cfg.KeepIntermediate = keep
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Assemble(reads); err != nil {
			t.Fatal(err)
		}
		sorted, _ := filepath.Glob(filepath.Join(cfg.Workspace, "node*", "sorted_*"))
		if keep != (len(sorted) > 0) {
			t.Errorf("KeepIntermediate=%t: %d sorted partition files left", keep, len(sorted))
		}
		if _, err := os.Stat(filepath.Join(cfg.Workspace, "contigs.fasta")); err != nil {
			t.Errorf("KeepIntermediate=%t: %v", keep, err)
		}
		cfg.Resume = true
		if cl, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := cl.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		if replayed := len(res.CachedStages) == len(nodeStages); replayed != keep {
			t.Errorf("KeepIntermediate=%t: rerun replayed %v", keep, res.CachedStages)
		}
	}
}

// TestClusterReduceWallIncludesSerialPart: the serialized reduce — the
// master feeding and sealing its engine — is part of the Reduce phase's
// wall time, as its modeled time is: the phase spans at least the
// coordinator's parallel Reduce span plus its ReduceSerial span.
func TestClusterReduceWallIncludesSerialPart(t *testing.T) {
	_, reads := testData(t)
	cfg := clusterConfig(t, 2)
	cfg.GraphBackend = core.BackendSuccinct // a seal that sorts a spill on disk
	tr := obs.NewTracer()
	cfg.Obs = obs.New(nil, tr, nil)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.AssembleContext(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]time.Duration{}
	for _, e := range tr.Events() {
		if e.Phase == "X" && e.Cat == "stage" && e.Pid == 0 {
			spans[e.Name] = time.Duration(e.Dur) * time.Microsecond
		}
	}
	reduce, _ := res.PhaseByName(core.PhaseReduce)
	// Microsecond span rounding and the gap between a span and the timer
	// inside it.
	const slack = 500 * time.Microsecond
	if floor := spans[string(core.PhaseReduce)] + spans["ReduceSerial"] - slack; reduce.Wall < floor {
		t.Errorf("Reduce wall %v, spans Reduce %v + ReduceSerial %v", reduce.Wall,
			spans[string(core.PhaseReduce)], spans["ReduceSerial"])
	}
	var sum time.Duration
	for _, p := range res.Phases {
		sum += p.Wall
	}
	if sum != res.TotalWall {
		t.Errorf("phase walls sum to %v, TotalWall %v", sum, res.TotalWall)
	}
}
