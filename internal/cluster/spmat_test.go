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
