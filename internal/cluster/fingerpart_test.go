package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
)

func TestFingerprintPartitioningMatchesSingleNode(t *testing.T) {
	_, reads := testData(t)
	single, err := core.New(singleConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 3, 4} {
		cfg := clusterConfig(t, nodes)
		cfg.PartitionByFingerprint = true
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := cl.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		if dres.CandidateEdges != sres.CandidateEdges {
			t.Errorf("nodes=%d: candidates %d != single %d",
				nodes, dres.CandidateEdges, sres.CandidateEdges)
		}
		if dres.AcceptedEdges != sres.AcceptedEdges {
			t.Errorf("nodes=%d: accepted %d != single %d",
				nodes, dres.AcceptedEdges, sres.AcceptedEdges)
		}
		if len(dres.Contigs) != len(sres.Contigs) {
			t.Fatalf("nodes=%d: %d contigs != %d", nodes, len(dres.Contigs), len(sres.Contigs))
		}
		for i := range dres.Contigs {
			if !dres.Contigs[i].Equal(sres.Contigs[i]) {
				t.Fatalf("nodes=%d: contig %d differs (fingerprint order broken?)", nodes, i)
			}
		}
	}
}

func TestFingerprintPartitioningBalancesNarrowLengthRange(t *testing.T) {
	// When there are fewer length partitions than nodes, length
	// partitioning leaves nodes idle in the reduce phase while
	// fingerprint partitioning keeps all of them busy. Use a read length
	// barely above lmin so only a handful of partitions exist.
	_, reads := testData(t) // 60 bp reads
	lmin := 57              // only 3 partitions: 57, 58, 59

	reduceBusy := func(byFingerprint bool) int {
		cfg := clusterConfig(t, 4)
		cfg.MinOverlap = lmin
		cfg.PartitionByFingerprint = byFingerprint
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		busy := 0
		for _, d := range res.NodeModeled[core.PhaseReduce] {
			if d > 0 {
				busy++
			}
		}
		return busy
	}
	if busy := reduceBusy(false); busy > 3 {
		t.Errorf("length partitioning: %d nodes busy, expected <= 3 partitions' worth", busy)
	}
	if busy := reduceBusy(true); busy != 4 {
		t.Errorf("fingerprint partitioning: %d nodes busy in reduce, want 4", busy)
	}
}

// TestOwnsCoversSpace holds the shuffle's ownership predicate to the
// partition property: under either partitioning, for 1-9 nodes, every
// (length, key) has exactly one owner, and fingerprint ownership is
// monotone with slice boundaries at k*stride.
func TestOwnsCoversSpace(t *testing.T) {
	for nodes := 1; nodes <= 9; nodes++ {
		for _, byFP := range []bool{false, true} {
			cfg := clusterConfig(t, nodes)
			cfg.PartitionByFingerprint = byFP
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			owner := func(l int, hi uint64) int {
				found := -1
				for id := 0; id < nodes; id++ {
					if cl.owns(id, l, kv.Key{Hi: hi}) {
						if found != -1 {
							t.Fatalf("nodes=%d byFP=%t: l=%d hi=%x owned by %d and %d", nodes, byFP, l, hi, found, id)
						}
						found = id
					}
				}
				if found == -1 {
					t.Fatalf("nodes=%d byFP=%t: l=%d hi=%x has no owner", nodes, byFP, l, hi)
				}
				return found
			}
			stride := keySpace/uint64(nodes) + 1
			his := []uint64{0, keySpace / 2, keySpace - 1}
			for k := 1; k < nodes; k++ {
				his = append(his, uint64(k)*stride-1, uint64(k)*stride)
			}
			for l := cfg.MinOverlap; l < cfg.MinOverlap+2*nodes; l++ {
				for _, hi := range his {
					got := owner(l, hi)
					want := (l - cfg.MinOverlap) % nodes
					if byFP {
						want = int(hi / stride)
					}
					if got != want {
						t.Errorf("nodes=%d byFP=%t: l=%d hi=%x owned by %d, want %d", nodes, byFP, l, hi, got, want)
					}
				}
			}
			if byFP && (owner(cfg.MinOverlap, 0) != 0 || owner(cfg.MinOverlap, keySpace-1) != nodes-1) {
				t.Errorf("nodes=%d: fingerprint ownership does not span node 0 to node %d", nodes, nodes-1)
			}
		}
	}
}
