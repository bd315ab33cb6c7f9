package lasagna

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kvio"
	"repro/internal/quality"
	"repro/internal/readsim"
)

// Integration tests exercising whole-pipeline behaviour across modules.

func TestIntegrationFullCoverageWithDedupe(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 8000, Seed: 301})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 70, Coverage: 25, Seed: 302})
	cfg := DefaultConfig(t.TempDir())
	cfg.MinOverlap = 40
	cfg.HostBlockPairs = 1 << 15
	cfg.DeviceBlockPairs = 1 << 11
	cfg.DedupeReads = true
	cfg.IncludeSingletons = true
	res, err := Assemble(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicatesRemoved == 0 {
		t.Error("25x coverage should contain duplicate reads")
	}
	rep := quality.Evaluate(genome, res.Contigs)
	if rep.MisassembledContigs != 0 {
		t.Errorf("%d misassembled contigs from error-free reads", rep.MisassembledContigs)
	}
	if rep.CoverageFraction() < 0.99 {
		t.Errorf("genome coverage = %.3f, want ~1.0", rep.CoverageFraction())
	}
	if rep.N50 < 1000 {
		t.Errorf("N50 = %d, expected long contigs from deduplicated 25x data", rep.N50)
	}
}

func TestIntegrationNaiveKernelIdenticalOutput(t *testing.T) {
	// The rejected per-read-thread kernel computes the same fingerprints,
	// so a Mapper on it writes byte-identical raw partitions, on which
	// every later stage is a function; only the modeled device cost differs.
	_, reads := GenerateDataset(Datasets[0].Scaled(0.05))
	cfg := DefaultConfig(t.TempDir())
	cfg.MinOverlap = Datasets[0].MinOverlap
	run := func(naive bool) (map[string][]byte, int64) {
		dir := t.TempDir()
		dev := gpu.NewDevice(cfg.GPU, nil)
		m := core.NewMapper(dev, nil, cfg.MinOverlap, cfg.MapBatchReads, reads.MaxLen())
		m.Workers = cfg.Workers
		m.NaiveKernel = naive
		sfxW := kvio.NewPartitionWriters(dir, kvio.Suffix, dev.Meter())
		pfxW := kvio.NewPartitionWriters(dir, kvio.Prefix, dev.Meter())
		err := m.MapRange(context.Background(), reads, 0, reads.NumReads(), sfxW, pfxW)
		if err == nil {
			err = errors.Join(sfxW.Close(), pfxW.Close())
		}
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return files, dev.Meter().Snapshot().DeviceMemBytes
	}
	scanFiles, scanBytes := run(false)
	naiveFiles, naiveBytes := run(true)
	if len(scanFiles) == 0 || len(naiveFiles) != len(scanFiles) {
		t.Fatalf("kernel choice changed the partition set: %d vs %d files", len(naiveFiles), len(scanFiles))
	}
	for name, data := range scanFiles {
		if !bytes.Equal(naiveFiles[name], data) {
			t.Fatalf("%s differs between kernels", name)
		}
	}
	if naiveBytes <= scanBytes {
		t.Errorf("naive kernel device bytes %d, scan kernel %d: want more", naiveBytes, scanBytes)
	}
}

func TestIntegrationClusterOddNodeCount(t *testing.T) {
	_, reads := GenerateDataset(Datasets[0].Scaled(0.06))
	sc := DefaultConfig(t.TempDir())
	sc.MinOverlap = Datasets[0].MinOverlap
	sc.HostBlockPairs = 1 << 13
	sc.DeviceBlockPairs = 1 << 10
	sres, err := Assemble(sc, reads)
	if err != nil {
		t.Fatal(err)
	}
	cc := DefaultClusterConfig(t.TempDir(), 3)
	cc.MinOverlap = Datasets[0].MinOverlap
	cc.HostBlockPairs = 1 << 13
	cc.DeviceBlockPairs = 1 << 10
	cc.InputBlockReads = 37 // deliberately awkward block size
	cres, err := AssembleDistributed(cc, reads)
	if err != nil {
		t.Fatal(err)
	}
	if cres.AcceptedEdges != sres.AcceptedEdges || len(cres.Contigs) != len(sres.Contigs) {
		t.Fatalf("3-node cluster diverged: %d vs %d edges", cres.AcceptedEdges, sres.AcceptedEdges)
	}
	for i := range cres.Contigs {
		if !cres.Contigs[i].Equal(sres.Contigs[i]) {
			t.Fatalf("contig %d differs", i)
		}
	}
}

func TestIntegrationErrorReadsAssemble(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 5000, Seed: 303})
	reads := readsim.Simulate(genome, readsim.ReadParams{
		ReadLen: 70, Coverage: 20, ErrorRate: 0.01, Seed: 304,
	})
	cfg := DefaultConfig(t.TempDir())
	cfg.MinOverlap = 40
	cfg.HostBlockPairs = 1 << 14
	cfg.DeviceBlockPairs = 1 << 11
	cfg.VerifyOverlaps = true
	res, err := Assemble(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("errors must not cause fingerprint false positives (got %d)", res.FalsePositives)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("noisy reads should still assemble into contigs")
	}
	// With substitution errors the contigs are no longer all exact genome
	// substrings, but any overlap the pipeline accepted was an exact
	// read-to-read match, so the contig set must still be nonempty and
	// internally consistent (every contig at least as long as the
	// shortest overhang).
	for i, c := range res.Contigs {
		if len(c) == 0 {
			t.Errorf("contig %d is empty", i)
		}
	}
}

func TestIntegrationDedupeSingleContigAtHighCoverage(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 4000, Seed: 305})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 80, Coverage: 30, Seed: 306})
	cfg := DefaultConfig(t.TempDir())
	cfg.MinOverlap = 45
	cfg.HostBlockPairs = 1 << 15
	cfg.DeviceBlockPairs = 1 << 11
	cfg.DedupeReads = true
	res, err := Assemble(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	rep := quality.Evaluate(genome, res.Contigs)
	if rep.CoverageFraction() < 0.99 {
		t.Errorf("coverage = %.3f", rep.CoverageFraction())
	}
	if rep.NumContigs > 5 {
		t.Errorf("deduplicated 30x error-free assembly should be nearly one contig, got %d",
			rep.NumContigs)
	}
}
