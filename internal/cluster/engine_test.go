package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/obs"
)

// engineTotals are the graph.* counters a run's engine published under
// backend: stored edges, removed edges, and the two-hop kernel's product
// terms and row tiles.
func engineTotals(reg *obs.Registry, backend string) (tot [4]int64) {
	for i, metric := range []string{"nnz", "removed_edges", "spgemm_flops", "spgemm_tiles"} {
		tot[i] = reg.Counter(fmt.Sprintf("graph.%s{backend=%q}", metric, backend)).Value()
	}
	return tot
}

// assembleWatchingMaster runs cl over reads and returns, next to the
// result, the master's tracked host bytes as Reduce began (captured when
// node 0 commits Sort, the last thing before it) and after the run ended.
func assembleWatchingMaster(ctx context.Context, cl *Cluster, reads *dna.ReadSet) (res *Result, before, after int64, err error) {
	cl.FaultHook = func(nodeID int, stage core.PhaseName) error {
		if nodeID == 0 && stage == core.PhaseSort {
			before = cl.nodes[0].HostMem.Current()
		}
		return nil
	}
	res, err = cl.AssembleContext(ctx, reads)
	return res, before, cl.nodes[0].HostMem.Current(), err
}

// checkClusterEngineParity runs the backend on 1, 2 and 4 nodes and holds
// every run to the single-node run sres (whose engine published into
// sreg): same FASTA, same candidate/accepted/reduced counts, same engine
// totals, and a master whose host tracker is back at its pre-Reduce level
// once Compress has released the store.
func checkClusterEngineParity(t *testing.T, reads *dna.ReadSet, backend string, sres *core.Result, sreg *obs.Registry) {
	t.Helper()
	sfasta, err := os.ReadFile(sres.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	want := engineTotals(sreg, backend)
	if want[1] == 0 || want[2] == 0 || want[3] == 0 {
		t.Fatalf("single-node %s engine totals %v: the reduction did nothing", backend, want)
	}
	for _, nodes := range []int{1, 2, 4} {
		cfg := clusterConfig(t, nodes)
		cfg.GraphBackend = backend
		reg := obs.NewRegistry()
		cfg.Obs = obs.New(nil, nil, reg)
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dres, before, after, err := assembleWatchingMaster(context.Background(), cl, reads)
		if err != nil {
			t.Fatal(err)
		}
		if dres.CandidateEdges != sres.CandidateEdges || dres.AcceptedEdges != sres.AcceptedEdges ||
			dres.ReducedEdges != sres.ReducedEdges {
			t.Errorf("nodes=%d: candidate/accepted/reduced = %d/%d/%d, single-node %d/%d/%d", nodes,
				dres.CandidateEdges, dres.AcceptedEdges, dres.ReducedEdges,
				sres.CandidateEdges, sres.AcceptedEdges, sres.ReducedEdges)
		}
		if got := engineTotals(reg, backend); got != want {
			t.Errorf("nodes=%d: engine nnz/removed/flops/tiles = %v, single-node %v", nodes, got, want)
		}
		if after != before {
			t.Errorf("nodes=%d: master holds %d host bytes after Compress, %d before Reduce", nodes, after, before)
		}
		dfasta, err := os.ReadFile(dres.ContigPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(dfasta) != string(sfasta) {
			t.Fatalf("nodes=%d: cluster %s FASTA differs from single-node %s FASTA", nodes, backend, backend)
		}
	}
}

// cancelAt is a log handler that cancels a run when a given record passes:
// the one way to stop a cluster between two points of its reduce phase.
type cancelAt struct {
	msg, phase string
	cancel     context.CancelFunc
}

func (h cancelAt) Enabled(context.Context, slog.Level) bool { return true }
func (h cancelAt) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h cancelAt) WithGroup(string) slog.Handler            { return h }

func (h cancelAt) Handle(_ context.Context, r slog.Record) error {
	if r.Message != h.msg {
		return nil
	}
	match := h.phase == ""
	r.Attrs(func(a slog.Attr) bool {
		match = match || (a.Key == "phase" && a.Value.String() == h.phase)
		return !match
	})
	if match {
		h.cancel()
	}
	return nil
}

// checkMasterReleasesOnFailure cancels a 2-node run at the two points where
// the master's engine holds a store nobody will walk — after the parallel
// overlap finding, so sealing fails, and after a successful seal, so
// Compress never runs — and requires the store released exactly once: the
// tracker back at its pre-Reduce level, the spill scratch gone.
func checkMasterReleasesOnFailure(t *testing.T, reads *dna.ReadSet, backend string) {
	t.Helper()
	for _, at := range []cancelAt{
		{msg: "phase done", phase: string(core.PhaseReduce)}, // Seal sees a dead context
		{msg: "serialized reduce done"},                      // sealed, then cancelled before Compress
	} {
		ctx, cancel := context.WithCancel(context.Background())
		at.cancel = cancel
		cfg := clusterConfig(t, 2)
		cfg.GraphBackend = backend
		cfg.Obs = obs.New(slog.New(at), nil, nil)
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, before, after, err := assembleWatchingMaster(ctx, cl, reads)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s cancelled at %q: err = %v", backend, at.msg, err)
		}
		if _, ok := res.PhaseByName(core.PhaseCompress); ok {
			t.Errorf("%s cancelled at %q: Compress still ran", backend, at.msg)
		}
		if after != before {
			t.Errorf("%s cancelled at %q: master holds %d host bytes, %d before Reduce",
				backend, at.msg, after, before)
		}
		if left, _ := filepath.Glob(filepath.Join(cl.nodes[0].Scratch, "sort_*")); len(left) != 0 {
			t.Errorf("%s cancelled at %q: scratch left behind: %v", backend, at.msg, left)
		}
	}
}
