package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/contig"
	"repro/internal/gpu"
	"repro/internal/graph"
)

// TestParallelTraversalIdenticalAssembly walks one run's greedy graph —
// rebuilt from its edges.kv — sequentially and with the BSP pointer-jumping
// traversal: with cycle breaking off the two must find the same paths, and
// those paths spell the run's contigs.
func TestParallelTraversalIdenticalAssembly(t *testing.T) {
	_, reads := testGenomeReads(t, 2500, 55, 10)
	cfg := smallConfig(t)
	cfg.BreakCycles = false // the BSP walk skips residual cycles
	cfg.KeepIntermediate = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(reads.NumReads())
	it, err := newEdgeFileIterator(filepath.Join(cfg.Workspace, edgeFileName), nil)
	if err != nil {
		t.Fatal(err)
	}
	err = loadEdges(it.Next, g.InstallEdge)
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	opts := graph.TraverseOptions{BreakCycles: false}
	dev := gpu.NewDevice(cfg.GPU, nil)
	seq := g.Traverse(reads.VertexLen, opts)
	par := g.TraverseParallel(dev, reads.VertexLen, opts)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sequential walk found %d paths, BSP %d, and they differ", len(seq), len(par))
	}
	contigs := contig.Generate(contig.Config{Device: dev}, par, reads)
	if len(contigs) != len(res.Contigs) {
		t.Fatalf("BSP paths spell %d contigs, the run wrote %d", len(contigs), len(res.Contigs))
	}
	for i := range contigs {
		if !contigs[i].Equal(res.Contigs[i]) {
			t.Fatalf("contig %d differs between the BSP paths and the run", i)
		}
	}
	if dev.Meter().Snapshot().DeviceOps == 0 {
		t.Error("the BSP traversal charged no device work")
	}
}

func TestDedupeOptionReducesReads(t *testing.T) {
	_, reads := testGenomeReads(t, 1000, 40, 25) // heavy duplication
	cfg := smallConfig(t)
	cfg.MinOverlap = 25
	cfg.DedupeReads = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicatesRemoved == 0 {
		t.Error("25x coverage of a 1 kb genome must contain duplicates")
	}
	if res.NumReads+res.DuplicatesRemoved != reads.NumReads() {
		t.Errorf("reads %d + dups %d != input %d",
			res.NumReads, res.DuplicatesRemoved, reads.NumReads())
	}
}

// TestNaiveKernelCostsMoreOnDevice is the Section III-A ablation at the
// layer it ablates: a Mapper on the rejected per-read-thread kernel writes
// byte-identical raw partitions and charges more device memory traffic.
func TestNaiveKernelCostsMoreOnDevice(t *testing.T) {
	_, reads := testGenomeReads(t, 1200, 48, 8)
	measure := func(naive bool) (map[string][]byte, int64) {
		dev := gpu.NewDevice(gpu.K40, nil)
		m := NewMapper(dev, nil, 30, 256, reads.MaxLen())
		m.Workers = 2
		m.NaiveKernel = naive
		files := mapPartitionFiles(t, m, reads)
		return files, dev.Meter().Snapshot().DeviceMemBytes
	}
	scanFiles, scan := measure(false)
	naiveFiles, naive := measure(true)
	if len(scanFiles) == 0 || len(naiveFiles) != len(scanFiles) {
		t.Fatalf("naive kernel wrote %d partition files, scan kernel %d", len(naiveFiles), len(scanFiles))
	}
	for name, data := range scanFiles {
		if !bytes.Equal(naiveFiles[name], data) {
			t.Errorf("%s differs between the kernels", name)
		}
	}
	if naive <= scan {
		t.Errorf("naive kernel device bytes (%d) should exceed scan kernel (%d)", naive, scan)
	}
}
