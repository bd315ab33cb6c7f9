package cluster

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestDistributedSpmatMatchesSingleNode pins the spmat backend's
// cluster/single-node parity: because the CSR Builder is order-
// independent and the masked SpGEMM is deterministic, the distributed
// run must produce byte-identical contig FASTA to a single-node run
// under the same backend, at every node count — with the same edge counts
// and two-hop totals, since the master runs the single-node engine code on
// the same candidates — and the master must let go of its store on every
// way out of the run.
func TestDistributedSpmatMatchesSingleNode(t *testing.T) {
	genome, reads := testData(t)
	scfg := singleConfig(t)
	scfg.GraphBackend = core.BackendSpmat
	sreg := obs.NewRegistry()
	scfg.Obs = obs.New(nil, nil, sreg)
	single, err := core.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	gs, grc := genome.String(), genome.ReverseComplement().String()
	for i, c := range sres.Contigs {
		if !strings.Contains(gs, c.String()) && !strings.Contains(grc, c.String()) {
			t.Errorf("contig %d not a genome substring", i)
		}
	}
	checkClusterEngineParity(t, reads, core.BackendSpmat, sres, sreg)
	checkMasterReleasesOnFailure(t, reads, core.BackendSpmat)
}

// TestClusterBackendValidation mirrors the core validation surface.
func TestClusterBackendValidation(t *testing.T) {
	cfg := clusterConfig(t, 2)
	cfg.GraphBackend = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown GraphBackend accepted")
	}
}

// TestClusterBackendChangesFingerprint keeps the per-node manifests from
// resuming across an engine switch, while ""/greedy stay equivalent.
func TestClusterBackendChangesFingerprint(t *testing.T) {
	base := clusterConfig(t, 2)
	greedy := base
	greedy.GraphBackend = core.BackendGreedy
	if base.Fingerprint(0) != greedy.Fingerprint(0) {
		t.Error("empty backend and explicit greedy must fingerprint identically")
	}
	sp := base
	sp.GraphBackend = core.BackendSpmat
	if base.Fingerprint(0) == sp.Fingerprint(0) {
		t.Error("spmat backend must change the node fingerprint")
	}
}

// TestClusterFingerprintStable pins Config.Fingerprint, the hash every
// node manifest is keyed by: a change to what it folds in (the retired
// fpart=false literal included) would silently invalidate the manifests
// of existing workspaces, so a resumed run would start over.
func TestClusterFingerprintStable(t *testing.T) {
	cells := []struct {
		name          string
		backend       string
		nodes, nodeID int
		want          string
	}{
		{"greedy n=1", core.BackendGreedy, 1, 0,
			"f51bbc5b8cfdbcc96110960792cc80638d2ba7e4cd5367296129c962c3a236d9"},
		{"greedy node 2 of 3", core.BackendGreedy, 3, 2,
			"3c4799f33428583f260444e57982d8600e7c776f287661c7c1ee89d42deaaf6f"},
		{"spmat n=1", core.BackendSpmat, 1, 0,
			"c58d2fe3147db8e3161f91b05340aae9508865014a6e446cfba3c6d7df4abb82"},
		{"spmat node 2 of 3", core.BackendSpmat, 3, 2,
			"f5decb9333380712d794c279f57f44b698b2200a1d3bc1d7227884773763c825"},
	}
	for _, cell := range cells {
		cfg := DefaultConfig("ws", cell.nodes)
		cfg.GraphBackend = cell.backend
		if got := cfg.Fingerprint(cell.nodeID); got != cell.want {
			t.Errorf("%s: fingerprint %s, want %s", cell.name, got, cell.want)
		}
	}
}
