package core

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/readsim"
)

// smallConfig returns a config sized so that tiny test datasets still
// exercise multi-run sorting and multi-window reduction.
func smallConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(t.TempDir())
	cfg.MinOverlap = 31
	cfg.HostBlockPairs = 4096
	cfg.DeviceBlockPairs = 512
	cfg.MapBatchReads = 256
	return cfg
}

func testGenomeReads(t *testing.T, genomeLen int, readLen int, cov float64) (dna.Seq, *dna.ReadSet) {
	t.Helper()
	genome := readsim.Genome(readsim.GenomeParams{Length: genomeLen, Seed: 77})
	reads := readsim.Simulate(genome, readsim.ReadParams{
		ReadLen: readLen, Coverage: cov, Seed: 78,
	})
	return genome, reads
}

func isSubstring(genome dna.Seq, s dna.Seq) bool {
	return strings.Contains(genome.String(), s.String()) ||
		strings.Contains(genome.ReverseComplement().String(), s.String())
}

func TestAssembleReconstructsSubstrings(t *testing.T) {
	genome, reads := testGenomeReads(t, 4000, 64, 12)
	cfg := smallConfig(t)
	cfg.VerifyOverlaps = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("128-bit fingerprints produced %d false positives", res.FalsePositives)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs produced")
	}
	// Error-free reads: every contig must be an exact substring of the
	// genome (either strand).
	for i, c := range res.Contigs {
		if !isSubstring(genome, c) {
			t.Errorf("contig %d (len %d) is not a genome substring", i, len(c))
		}
	}
	// Greedy assembly of 12x error-free coverage should produce contigs
	// far longer than a read.
	if res.ContigStats.N50 < 3*64 {
		t.Errorf("N50 = %d, expected substantial assembly", res.ContigStats.N50)
	}
	if res.AcceptedEdges == 0 || res.CandidateEdges < res.AcceptedEdges/2 {
		t.Errorf("edges: candidates=%d accepted=%d", res.CandidateEdges, res.AcceptedEdges)
	}
}

func TestAssemblePhasesReported(t *testing.T) {
	_, reads := testGenomeReads(t, 1500, 50, 8)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []PhaseName{PhaseMap, PhaseSort, PhaseReduce, PhaseCompress} {
		ps, ok := res.PhaseByName(name)
		if !ok {
			t.Fatalf("phase %s missing", name)
		}
		if ps.Wall < 0 || ps.Modeled < 0 {
			t.Errorf("phase %s has negative times: %+v", name, ps)
		}
	}
	sort, _ := res.PhaseByName(PhaseSort)
	if sort.DiskRead == 0 || sort.DiskWrite == 0 {
		t.Error("sort phase should move disk bytes")
	}
	mapPh, _ := res.PhaseByName(PhaseMap)
	if mapPh.DiskWrite == 0 {
		t.Error("map phase should write partitions")
	}
	if mapPh.PeakDevice == 0 {
		t.Error("map phase should allocate device memory")
	}
	if res.TotalModeled <= 0 {
		t.Error("modeled time should be positive")
	}
}

func TestAssembleDeterministic(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)
	run := func() *Result {
		cfg := smallConfig(t)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AcceptedEdges != b.AcceptedEdges || a.CandidateEdges != b.CandidateEdges {
		t.Fatalf("edge counts differ: %d/%d vs %d/%d",
			a.AcceptedEdges, a.CandidateEdges, b.AcceptedEdges, b.CandidateEdges)
	}
	if len(a.Contigs) != len(b.Contigs) {
		t.Fatalf("contig counts differ: %d vs %d", len(a.Contigs), len(b.Contigs))
	}
	for i := range a.Contigs {
		if !a.Contigs[i].Equal(b.Contigs[i]) {
			t.Fatalf("contig %d differs between runs", i)
		}
	}
}

func TestAssembleFileWithLoadPhase(t *testing.T) {
	_, reads := testGenomeReads(t, 1000, 40, 6)
	dir := t.TempDir()
	path := dir + "/reads.fastq"
	if err := fastq.WriteFastqFile(path, reads); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t)
	cfg.MinOverlap = 25
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.AssembleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	load, ok := res.PhaseByName(PhaseLoad)
	if !ok || load.DiskRead == 0 {
		t.Errorf("load phase = %+v, ok=%v", load, ok)
	}
	if res.NumReads != reads.NumReads() {
		t.Errorf("NumReads = %d, want %d", res.NumReads, reads.NumReads())
	}
	// Contig FASTA must exist and parse.
	rs, _, err := fastq.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumReads() != len(res.Contigs) {
		t.Errorf("FASTA has %d contigs, result has %d", rs.NumReads(), len(res.Contigs))
	}
}

func TestAssembleDeviceMemoryBounded(t *testing.T) {
	_, reads := testGenomeReads(t, 1200, 40, 8)
	cfg := smallConfig(t)
	cfg.MinOverlap = 25
	cfg.GPU = gpu.Spec{Name: "tiny", Cores: 64, ClockMHz: 500,
		MemBandwidthGBps: 10, MemBytes: 1 << 20}
	cfg.DeviceBlockPairs = 256
	cfg.MapBatchReads = 64
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	if peak := p.Device().MemTracker().Peak(); peak > 1<<20 {
		t.Errorf("device peak %d exceeds 1 MiB capacity", peak)
	}
}

func TestAssembleErrors(t *testing.T) {
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(dna.NewReadSet(0, 0)); err == nil {
		t.Error("empty read set should fail")
	}
	rs := dna.NewReadSet(1, 10)
	rs.Append(dna.MustParseSeq("ACGTACGT")) // shorter than MinOverlap 31
	if _, err := p.Assemble(rs); err == nil {
		t.Error("MinOverlap >= read length should fail")
	}
}

// TestLongReadRejected pins the graph layer's 16-bit read length limit:
// overlap lengths and path overhangs are uint16, so a longer read would
// come out as a contig of its length mod 65 536. Such a read set must be
// refused before Map, and a read at the limit must assemble whole.
func TestLongReadRejected(t *testing.T) {
	assembleOne := func(n int) (*Result, error) {
		cfg := smallConfig(t)
		cfg.MinOverlap = n - 10
		cfg.IncludeSingletons = true
		cfg.Workers = 1
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := dna.NewReadSet(1, n)
		rs.Append(readsim.Genome(readsim.GenomeParams{Length: n, Seed: 5}))
		return p.Assemble(rs)
	}
	res, err := assembleOne(65600)
	if err == nil || !strings.Contains(err.Error(), "65600") || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("a 65 600-base read: err = %v, want one naming the read length and the limit", err)
	}
	if len(res.Phases) != 0 || len(res.Contigs) != 0 {
		t.Errorf("rejected run ran %d phases and wrote %d contigs, want none", len(res.Phases), len(res.Contigs))
	}
	res, err = assembleOne(math.MaxUint16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 || len(res.Contigs[0]) != math.MaxUint16 {
		t.Errorf("a read at the limit: %d contigs, want one of %d bases", len(res.Contigs), math.MaxUint16)
	}
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig("/tmp/x")
	cases := []struct {
		mutate func(*Config)
		ok     bool
		errHas string // a substring the error must contain
	}{
		{func(c *Config) {}, true, ""},
		{func(c *Config) { c.Workspace = "" }, false, ""},
		{func(c *Config) { c.MinOverlap = 0 }, false, ""},
		{func(c *Config) { c.HostBlockPairs = 0 }, false, ""},
		{func(c *Config) { c.DeviceBlockPairs = c.HostBlockPairs * 2 }, false, ""},
		{func(c *Config) { c.MapBatchReads = 0 }, false, ""},
		{func(c *Config) { c.GPU.MemBytes = 10 }, false, ""},
		// Not mapped to spmat, which may remove more edges than the Myers
		// sweep did: the error names the replacement instead.
		{func(c *Config) { c.GraphBackend = "full" }, false, `was removed; use "spmat"`},
	}
	for i, c := range cases {
		cfg := base
		c.mutate(&cfg)
		err := cfg.Validate()
		if (err == nil) != c.ok || (err != nil && !strings.Contains(err.Error(), c.errHas)) {
			t.Errorf("case %d: err=%v ok=%v", i, err, c.ok)
		}
	}
	if fmt.Sprint(Backends) != "[greedy spmat succinct]" {
		t.Errorf("Backends = %v", Backends)
	}
}

func TestKeepIntermediate(t *testing.T) {
	_, reads := testGenomeReads(t, 800, 40, 6)
	cfg := smallConfig(t)
	cfg.MinOverlap = 25
	cfg.KeepIntermediate = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cfg.Workspace + "/partitions")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("KeepIntermediate should retain partition files")
	}
	cfg2 := smallConfig(t)
	cfg2.MinOverlap = 25
	p2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg2.Workspace + "/partitions"); !os.IsNotExist(err) {
		t.Error("partitions should be removed without KeepIntermediate")
	}
}

func TestSingletonsCoverAllReads(t *testing.T) {
	_, reads := testGenomeReads(t, 800, 40, 5)
	cfg := smallConfig(t)
	cfg.MinOverlap = 25
	cfg.IncludeSingletons = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	// With singletons, total contig bases must be at least ... every read
	// is represented, so contig bases >= reads' unique contribution; at
	// minimum there are at least as many contig bases as one read.
	if res.ContigStats.TotalBases < int64(reads.MaxLen()) {
		t.Error("singleton contigs missing")
	}
	// No contig may be shorter than the shortest overhang (1 base), and
	// singletons are exactly read-length.
	count := 0
	for _, c := range res.Contigs {
		if len(c) == 40 {
			count++
		}
	}
	if count == 0 {
		t.Log("no exact read-length contigs; acceptable if every read overlapped")
	}
}

// withEmptyRead returns a copy of rs with a zero-length read inserted
// after read at, the shape a FASTQ record with an empty sequence line
// parses to.
func withEmptyRead(rs *dna.ReadSet, at int) *dna.ReadSet {
	out := dna.NewReadSet(rs.NumReads()+1, int(rs.TotalBases()))
	for i := 0; i < rs.NumReads(); i++ {
		out.Append(rs.Read(uint32(i)))
		if i == at {
			out.Append(dna.Seq{})
		}
	}
	return out
}

// TestEmptyReadAssemblesAsIfAbsent: a zero-length read has no overlaps
// and no fingerprints to charge, so on every backend the FASTA and the
// Map stage's modeled time equal those of the same input without it.
func TestEmptyReadAssemblesAsIfAbsent(t *testing.T) {
	_, reads := testGenomeReads(t, 4000, 64, 8)
	withEmpty := withEmptyRead(reads, 5)
	for _, backend := range Backends {
		t.Run(backend, func(t *testing.T) {
			run := func(rs *dna.ReadSet) (*Result, []byte) {
				cfg := smallConfig(t)
				cfg.GraphBackend = backend
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Assemble(rs)
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
			gotMap, _ := got.PhaseByName(PhaseMap)
			wantMap, _ := want.PhaseByName(PhaseMap)
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
		})
	}
}
