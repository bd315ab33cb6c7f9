package core

import (
	"errors"
	"os"
	"testing"
)

// TestSuccinctSinglePassHostPeak pins the tentpole memory claim at the
// pipeline level: with the succinct backend, the graph-attributable host
// peak during Reduce — builder transients included — stays below the
// uncompressed edge list (10 B per directed edge) that the spmat builder
// materializes, and below spmat's own measured graph peak.
func TestSuccinctSinglePassHostPeak(t *testing.T) {
	_, reads := testGenomeReads(t, 4000, 64, 14)

	run := func(backend string) *Result {
		cfg := smallConfig(t)
		cfg.DedupeReads = true
		cfg.GraphBackend = backend
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Assemble(reads)
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if cur := p.GraphMem().Current(); cur != 0 {
			t.Fatalf("backend %s leaks %d graph-tracked bytes", backend, cur)
		}
		return res
	}

	succ := run(BackendSuccinct)
	sp := run(BackendSpmat)

	succReduce, ok := succ.PhaseByName(PhaseReduce)
	if !ok || succReduce.GraphHostPeak == 0 {
		t.Fatalf("succinct Reduce graph peak missing: %+v", succReduce)
	}
	spReduce, _ := sp.PhaseByName(PhaseReduce)

	totalEdges := succ.AcceptedEdges + succ.ReducedEdges
	if totalEdges == 0 {
		t.Fatal("no edges in the differential run")
	}
	edgeListBytes := 10 * totalEdges
	if succReduce.GraphHostPeak >= edgeListBytes {
		t.Errorf("succinct graph peak %d B not below the %d B edge list (%d edges)",
			succReduce.GraphHostPeak, edgeListBytes, totalEdges)
	}
	if succReduce.GraphHostPeak >= spReduce.GraphHostPeak {
		t.Errorf("succinct graph peak %d B not below spmat's %d B",
			succReduce.GraphHostPeak, spReduce.GraphHostPeak)
	}

	succCompress, _ := succ.PhaseByName(PhaseCompress)
	spCompress, _ := sp.PhaseByName(PhaseCompress)
	if succCompress.GraphHostPeak == 0 || succCompress.GraphHostPeak >= spCompress.GraphHostPeak {
		t.Errorf("succinct Compress graph peak %d B, spmat %d B",
			succCompress.GraphHostPeak, spCompress.GraphHostPeak)
	}
}

// TestSuccinctResume pins the new backend into the resume contract: a run
// crashed after Reduce resumes and reproduces the cold output byte for
// byte, rebuilding the compressed store from the persisted edge artifact.
func TestSuccinctResume(t *testing.T) {
	want := coldContigs(t, func(c *Config) { c.GraphBackend = BackendSuccinct })
	reads := testResumeReads(t)

	cfg := smallConfig(t)
	cfg.GraphBackend = BackendSuccinct
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.FaultHook = func(stage PhaseName) error {
		if stage == PhaseReduce {
			return errInjectedCrash
		}
		return nil
	}
	if _, err := p.Assemble(reads); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("interrupted run error = %v, want injected crash", err)
	}

	cfg.Resume = true
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(reads)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if len(res.CachedStages) != 3 {
		t.Fatalf("CachedStages = %v, want Map/Sort/Reduce", res.CachedStages)
	}
	got, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("resumed succinct output differs from cold run")
	}
}

// TestGraphHostModel sanity-checks the admission model: footprints grow
// with job size, the backends order as their representations do, and
// MaxReadsForHostBudget is the exact inverse at the budget boundary.
func TestGraphHostModel(t *testing.T) {
	const readLen = 100
	for _, backend := range Backends {
		if GraphHostModel(backend, 1000, readLen) >= GraphHostModel(backend, 2000, readLen) {
			t.Errorf("%s: model not increasing in numReads", backend)
		}
	}
	n := 100000
	greedy := GraphHostModel(BackendGreedy, n, readLen)
	succ := GraphHostModel(BackendSuccinct, n, readLen)
	sp := GraphHostModel(BackendSpmat, n, readLen)
	if !(greedy < succ && succ < sp) {
		t.Errorf("model ordering: greedy=%d succinct=%d spmat=%d", greedy, succ, sp)
	}

	for _, backend := range Backends {
		for _, budget := range []int64{1 << 20, 64 << 20, 8 << 30} {
			maxReads := MaxReadsForHostBudget(backend, budget, readLen)
			if maxReads <= 0 {
				t.Fatalf("%s: budget %d admits no reads", backend, budget)
			}
			if got := GraphHostModel(backend, maxReads, readLen); got > budget {
				t.Errorf("%s: model(%d) = %d exceeds budget %d", backend, maxReads, got, budget)
			}
			if got := GraphHostModel(backend, maxReads+1, readLen); got <= budget {
				t.Errorf("%s: maxReads %d not maximal for budget %d", backend, maxReads, budget)
			}
		}
	}
	if MaxReadsForHostBudget(BackendSuccinct, 0, readLen) != 0 {
		t.Error("zero budget admits reads")
	}
}
