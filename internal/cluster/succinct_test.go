package cluster

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestDistributedSuccinctMatchesSingleNode pins the succinct backend's
// cluster/single-node parity: the master spills candidates, sorts, and
// streams them into the compressed store, whose contents depend only on
// the edge set — so the distributed run must produce byte-identical
// contig FASTA to a single-node succinct run (and, transitively, to
// spmat) at every node count, with the same edge counts and two-hop
// totals, and the master must let go of its store on every way out.
func TestDistributedSuccinctMatchesSingleNode(t *testing.T) {
	_, reads := testData(t)
	scfg := singleConfig(t)
	scfg.GraphBackend = core.BackendSuccinct
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
	sfasta, err := os.ReadFile(sres.ContigPath)
	if err != nil {
		t.Fatal(err)
	}

	spcfg := singleConfig(t)
	spcfg.GraphBackend = core.BackendSpmat
	spp, err := core.New(spcfg)
	if err != nil {
		t.Fatal(err)
	}
	spres, err := spp.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	spfasta, err := os.ReadFile(spres.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(sfasta) != string(spfasta) {
		t.Fatal("single-node succinct FASTA differs from single-node spmat FASTA")
	}

	checkClusterEngineParity(t, reads, core.BackendSuccinct, sres, sreg)
	checkMasterReleasesOnFailure(t, reads, core.BackendSuccinct)
}

// TestClusterSuccinctFingerprint keeps per-node manifests from resuming
// across a switch to (or from) the succinct engine.
func TestClusterSuccinctFingerprint(t *testing.T) {
	base := clusterConfig(t, 2)
	succ := base
	succ.GraphBackend = core.BackendSuccinct
	if base.Fingerprint(0) == succ.Fingerprint(0) {
		t.Error("succinct backend must change the node fingerprint")
	}
	sp := base
	sp.GraphBackend = core.BackendSpmat
	if sp.Fingerprint(0) == succ.Fingerprint(0) {
		t.Error("spmat and succinct must fingerprint differently")
	}
}
