package cluster

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/readsim"
)

func testData(t *testing.T) (dna.Seq, *dna.ReadSet) {
	t.Helper()
	genome := readsim.Genome(readsim.GenomeParams{Length: 3000, Seed: 21})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 60, Coverage: 10, Seed: 22})
	return genome, reads
}

func clusterConfig(t *testing.T, nodes int) Config {
	t.Helper()
	cfg := DefaultConfig(t.TempDir(), nodes)
	cfg.MinOverlap = 30
	cfg.HostBlockPairs = 4096
	cfg.DeviceBlockPairs = 512
	cfg.MapBatchReads = 128
	cfg.InputBlockReads = 64
	return cfg
}

func singleConfig(t *testing.T) core.Config {
	t.Helper()
	cfg := core.DefaultConfig(t.TempDir())
	cfg.MinOverlap = 30
	cfg.HostBlockPairs = 4096
	cfg.DeviceBlockPairs = 512
	cfg.MapBatchReads = 128
	return cfg
}

func TestDistributedMatchesSingleNode(t *testing.T) {
	genome, reads := testData(t)
	single, err := core.New(singleConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}

	for _, nodes := range []int{1, 2, 4} {
		cl, err := New(clusterConfig(t, nodes))
		if err != nil {
			t.Fatal(err)
		}
		dres, err := cl.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		if dres.AcceptedEdges != sres.AcceptedEdges {
			t.Errorf("nodes=%d: accepted edges %d, single-node %d",
				nodes, dres.AcceptedEdges, sres.AcceptedEdges)
		}
		if dres.CandidateEdges != sres.CandidateEdges {
			t.Errorf("nodes=%d: candidate edges %d, single-node %d",
				nodes, dres.CandidateEdges, sres.CandidateEdges)
		}
		if len(dres.Contigs) != len(sres.Contigs) {
			t.Fatalf("nodes=%d: %d contigs, single-node %d",
				nodes, len(dres.Contigs), len(sres.Contigs))
		}
		for i := range dres.Contigs {
			if !dres.Contigs[i].Equal(sres.Contigs[i]) {
				t.Fatalf("nodes=%d: contig %d differs from single-node", nodes, i)
			}
		}
		// Contigs must still be genome substrings.
		gs, grc := genome.String(), genome.ReverseComplement().String()
		for i, c := range dres.Contigs {
			if !strings.Contains(gs, c.String()) && !strings.Contains(grc, c.String()) {
				t.Errorf("nodes=%d: contig %d not a genome substring", nodes, i)
			}
		}
	}
}

func TestClusterPhases(t *testing.T) {
	_, reads := testData(t)
	cl, err := New(clusterConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []core.PhaseName{core.PhaseMap, PhaseShuffle, core.PhaseSort,
		core.PhaseReduce, core.PhaseCompress} {
		ps, ok := res.PhaseByName(name)
		if !ok {
			t.Fatalf("missing phase %s", name)
		}
		if ps.Modeled < 0 {
			t.Errorf("phase %s negative modeled time", name)
		}
		if per := res.NodeModeled[name]; len(per) != 3 {
			t.Errorf("phase %s per-node times = %d entries", name, len(per))
		}
	}
	shuffle, _ := res.PhaseByName(PhaseShuffle)
	if shuffle.DiskRead == 0 {
		t.Error("shuffle should read partitions")
	}
}

func TestShuffleChargesNetworkOnlyAcrossNodes(t *testing.T) {
	_, reads := testData(t)
	// Single node: shuffle is all-local, no network bytes.
	cl1, err := New(clusterConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	var net1 int64
	for _, n := range cl1.nodes {
		net1 += n.Meter.Snapshot().NetBytes
	}
	if net1 != 0 {
		t.Errorf("1-node cluster moved %d network bytes; want 0", net1)
	}
	// Multi node: shuffle must cross the network.
	cl4, err := New(clusterConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl4.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	var net4 int64
	for _, n := range cl4.nodes {
		net4 += n.Meter.Snapshot().NetBytes
	}
	if net4 == 0 {
		t.Error("4-node cluster moved no network bytes")
	}
}

func TestScalingImprovesParallelPhases(t *testing.T) {
	// The Fig. 10 shape: per-node modeled sort/map time shrinks with more
	// nodes (aggregate I/O bandwidth), while the serialized reduce
	// component does not.
	_, reads := testData(t)
	measure := func(nodes int) (mapT, sortT float64) {
		cl, err := New(clusterConfig(t, nodes))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		mp, _ := res.PhaseByName(core.PhaseMap)
		st, _ := res.PhaseByName(core.PhaseSort)
		return mp.Modeled.Seconds(), st.Modeled.Seconds()
	}
	map1, sort1 := measure(1)
	map4, sort4 := measure(4)
	if map4 >= map1 {
		t.Errorf("map modeled time should shrink: 1 node %.4fs vs 4 nodes %.4fs", map1, map4)
	}
	if sort4 >= sort1 {
		t.Errorf("sort modeled time should shrink: 1 node %.4fs vs 4 nodes %.4fs", sort1, sort4)
	}
}

// TestReduceParallelismCapsAtPartitionCount is the premise of the paper's
// t_o*p/n bound: a length partition is reduced whole by its owner, so with
// fewer length partitions than nodes the surplus nodes sit idle in Reduce.
// 60-bp reads with l_min 57 leave three partitions (57, 58, 59) for four
// nodes.
func TestReduceParallelismCapsAtPartitionCount(t *testing.T) {
	_, reads := testData(t)
	cfg := clusterConfig(t, 4)
	cfg.MinOverlap = 57
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 3 {
		t.Fatalf("%d partitions, want 3", res.Partitions)
	}
	per := res.NodeModeled[core.PhaseReduce]
	for id, d := range per {
		if busy := d > 0; busy != (id < 3) {
			t.Errorf("node %d: Reduce modeled %v; want only nodes 0-2 busy (%v)", id, d, per)
		}
	}
}

// TestOwnsCoversSpace holds the shuffle's ownership to the partition
// property: for 1-9 nodes every length partition has one owner, and any
// nodes consecutive lengths give each node exactly one.
func TestOwnsCoversSpace(t *testing.T) {
	for nodes := 1; nodes <= 9; nodes++ {
		cfg := clusterConfig(t, nodes)
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for start := cfg.MinOverlap; start < cfg.MinOverlap+nodes; start++ {
			owned := make([]int, nodes)
			for l := start; l < start+nodes; l++ {
				id := cl.owner(l)
				if id < 0 || id >= nodes {
					t.Fatalf("nodes=%d: l=%d owned by node %d", nodes, l, id)
				}
				owned[id]++
			}
			for id, k := range owned {
				if k != 1 {
					t.Errorf("nodes=%d: node %d owns %d of lengths [%d, %d)", nodes, id, k, start, start+nodes)
				}
			}
		}
	}
}

func TestClusterValidate(t *testing.T) {
	good := clusterConfig(t, 2)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes should fail")
	}
	bad = good
	bad.InputBlockReads = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative block size should fail")
	}
	bad = good
	bad.Workspace = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty workspace should fail")
	}
}

func TestClusterErrors(t *testing.T) {
	cl, err := New(clusterConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Assemble(dna.NewReadSet(0, 0)); err == nil {
		t.Error("empty read set should fail")
	}
	rs := dna.NewReadSet(1, 8)
	rs.Append(dna.MustParseSeq("ACGT"))
	if _, err := cl.Assemble(rs); err == nil {
		t.Error("reads shorter than MinOverlap should fail")
	}

	// A read above the graph layer's 16-bit length limit is refused
	// before Map, not truncated (core's TestLongReadRejected).
	cfg := clusterConfig(t, 1)
	cfg.MinOverlap = 65590
	cfg.IncludeSingletons = true
	cfg.Workers = 1
	if cl, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	rs = dna.NewReadSet(1, 65600)
	rs.Append(readsim.Genome(readsim.GenomeParams{Length: 65600, Seed: 5}))
	res, err := cl.Assemble(rs)
	if err == nil || !strings.Contains(err.Error(), "65600") || !strings.Contains(err.Error(), "65535") {
		t.Errorf("a 65 600-base read: err = %v, want one naming the read length and the limit", err)
	}
	if len(res.Phases) != 0 || len(res.Contigs) != 0 {
		t.Errorf("rejected run ran %d phases and wrote %d contigs, want none", len(res.Phases), len(res.Contigs))
	}
}

// TestNodeWorkersDeterminism asserts that per-node partition concurrency
// (Config.Workers on every node) changes neither the distributed output nor its modeled cost:
// input blocks are assigned statically, every charge is a byte count, and
// overlap savings aggregate per unit of work, so the counters and the
// modeled total are the same numbers at every worker count.
func TestNodeWorkersDeterminism(t *testing.T) {
	_, reads := testData(t)
	var base *Result
	for _, w := range []int{1, 4} {
		cfg := clusterConfig(t, 3)
		cfg.Workers = w
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Assemble(reads)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.CandidateEdges != base.CandidateEdges || res.AcceptedEdges != base.AcceptedEdges {
			t.Errorf("Workers=%d: edges %d/%d, want %d/%d",
				w, res.CandidateEdges, res.AcceptedEdges, base.CandidateEdges, base.AcceptedEdges)
		}
		if res.TotalModeled != base.TotalModeled || res.Counters != base.Counters {
			t.Errorf("Workers=%d: modeled %v counters %+v, want %v %+v",
				w, res.TotalModeled, res.Counters, base.TotalModeled, base.Counters)
		}
		if len(res.Contigs) != len(base.Contigs) {
			t.Fatalf("Workers=%d: %d contigs, want %d", w, len(res.Contigs), len(base.Contigs))
		}
		for i := range base.Contigs {
			if !res.Contigs[i].Equal(base.Contigs[i]) {
				t.Fatalf("Workers=%d: contig %d differs", w, i)
			}
		}
	}
}

// TestRunPhaseFoldsNodeMeasures: a phase in which two nodes do different
// amounts of metered work records the slower node's modeled time, the sum
// of both nodes' bytes, and each node's own modeled time in NodeModeled.
func TestRunPhaseFoldsNodeMeasures(t *testing.T) {
	cl, err := New(clusterConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	err = cl.runPhase("Probe", res, func(n *node) error {
		n.Meter.AddDiskRead(int64(n.id+1) << 20)
		n.Meter.AddNet(int64(n.id+1) << 10)
		n.HostMem.Add(int64(n.id+1) * 100)
		n.HostMem.Release(int64(n.id+1) * 100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := cl.cfg.Profile()
	want := [2]time.Duration{}
	for id := range want {
		want[id] = costmodel.Counters{DiskReadBytes: int64(id+1) << 20, NetBytes: int64(id+1) << 10}.Time(prof)
	}
	ps := res.Phases[0]
	if ps.Name != "Probe" || ps.Modeled != want[1] || res.TotalModeled != want[1] {
		t.Errorf("phase %q modeled %v (total %v), want the slower node's %v", ps.Name, ps.Modeled, res.TotalModeled, want[1])
	}
	if ps.DiskRead != 3<<20 || ps.NetBytes != 3<<10 || ps.PeakHost != 200 {
		t.Errorf("disk %d net %d peak host %d, want the sums %d and %d and the larger peak 200",
			ps.DiskRead, ps.NetBytes, ps.PeakHost, 3<<20, 3<<10)
	}
	if per := res.NodeModeled["Probe"]; len(per) != 2 || per[0] != want[0] || per[1] != want[1] {
		t.Errorf("NodeModeled = %v, want %v", per, want)
	}
}

// TestEmptyReadAssemblesAsIfAbsent is core's empty-record cell on the
// cluster path: a zero-length read mapped on one node leaves the FASTA
// and the Map modeled time of the same input without it.
func TestEmptyReadAssemblesAsIfAbsent(t *testing.T) {
	_, reads := testData(t)
	withEmpty := dna.NewReadSet(reads.NumReads()+1, int(reads.TotalBases()))
	for i := 0; i < reads.NumReads(); i++ {
		withEmpty.Append(reads.Read(uint32(i)))
		if i == 70 { // inside the second input block
			withEmpty.Append(dna.Seq{})
		}
	}
	run := func(rs *dna.ReadSet) (*Result, []byte) {
		cl, err := New(clusterConfig(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Assemble(rs)
		if err != nil {
			t.Fatal(err)
		}
		fasta, err := os.ReadFile(res.ContigPath)
		if err != nil {
			t.Fatal(err)
		}
		return res, fasta
	}
	want, wantFASTA := run(reads)
	got, gotFASTA := run(withEmpty)
	if string(gotFASTA) != string(wantFASTA) {
		t.Errorf("FASTA with an empty read differs (%d vs %d bytes)", len(gotFASTA), len(wantFASTA))
	}
	gotMap, _ := got.PhaseByName(core.PhaseMap)
	wantMap, _ := want.PhaseByName(core.PhaseMap)
	if gotMap.Modeled != wantMap.Modeled || gotMap.DeviceOps != wantMap.DeviceOps {
		t.Errorf("Map modeled %v (%d ops) with an empty read, %v (%d ops) without",
			gotMap.Modeled, gotMap.DeviceOps, wantMap.Modeled, wantMap.DeviceOps)
	}
	// The read's two vertices still occupy a slot in vertex-indexed
	// structures, which moves the total by nanoseconds on the matrix
	// backends.
	if d := got.TotalModeled - want.TotalModeled; d < 0 || d > time.Microsecond {
		t.Errorf("modeled %v with an empty read, %v without", got.TotalModeled, want.TotalModeled)
	}
}
