package core

import (
	"bytes"
	"testing"

	"repro/internal/gpu"
)

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
