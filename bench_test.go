// Benchmarks of the pipeline's configurations beyond the paper's tables:
// worker scaling, modeled streams, the graph backends and their host
// memory, and the ablations. Each runs at a reduced scale and reports
// modeled seconds alongside Go's wall-clock measurement; several write
// the JSON baselines `make bench-gate` compares. The paper's tables and
// figures are cmd/lasagna-bench's, asserted by its TestPaperShapes.
//
//	go test -bench=. -benchmem
package lasagna

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kvio"
	"repro/internal/readsim"
)

// benchScale keeps `go test -bench=.` quick.
const benchScale = 0.1

func benchReads(b *testing.B, idx int) (readsim.Profile, *ReadSet) {
	b.Helper()
	p := readsim.Profiles[idx].Scaled(benchScale)
	_, rs := p.Generate()
	return p, rs
}

func benchConfig(b *testing.B, lmin int) Config {
	b.Helper()
	cfg := DefaultConfig(b.TempDir())
	cfg.MinOverlap = lmin
	cfg.HostBlockPairs = 1 << 14
	cfg.DeviceBlockPairs = 1 << 11
	return cfg
}

// BenchmarkPipelineWorkers measures the wall-clock effect of the
// partition-level worker pool (Config.Workers) on the largest bench-scale
// dataset. The modeled seconds are identical across worker counts by
// construction (see TestWorkersDeterminism); only the host wall clock
// should fall as workers increase.
func BenchmarkPipelineWorkers(b *testing.B) {
	p, rs := benchReads(b, 3)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := benchConfig(b, p.MinOverlap)
				cfg.Workers = workers
				b.StartTimer()
				if _, err := Assemble(cfg, rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// streamsBenchPhase is one phase's additive-vs-overlapped comparison in
// BENCH_streams.json. The serial figure is the additive model's
// (Modeled + OverlapSaved: the phase's metered work, priced with nothing
// overlapped).
type streamsBenchPhase struct {
	Phase              string  `json:"phase"`
	SerialModeledS     float64 `json:"serialModeledS"`
	OverlappedModeledS float64 `json:"overlappedModeledS"`
	OverlappedWallS    float64 `json:"overlappedWallS"`
}

type streamsBenchReport struct {
	SerialModeledS     float64             `json:"serialModeledS"`
	OverlappedModeledS float64             `json:"overlappedModeledS"`
	SavedS             float64             `json:"savedS"`
	OverlapRatio       float64             `json:"overlapRatio"`
	Phases             []streamsBenchPhase `json:"phases"`
}

// BenchmarkPipelineStreams assembles the largest bench-scale dataset and
// reports how much modeled time the stream overlap hides: each phase's
// overlapped modeled seconds beside the additive figure the same run's
// counters price to (see core's streams tests for why the two differ by
// exactly the saving). When BENCH_STREAMS_OUT names a file, the per-phase
// comparison is written there as JSON.
func BenchmarkPipelineStreams(b *testing.B) {
	p, rs := benchReads(b, 3)
	b.ReportAllocs()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchConfig(b, p.MinOverlap)
		b.StartTimer()
		var err error
		res, err = Assemble(cfg, rs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalModeled.Seconds(), "modeled-s")
	out := os.Getenv("BENCH_STREAMS_OUT")
	if out == "" {
		return
	}
	rep := streamsBenchReport{
		SerialModeledS:     (res.TotalModeled + res.OverlapSaved).Seconds(),
		OverlappedModeledS: res.TotalModeled.Seconds(),
		SavedS:             res.OverlapSaved.Seconds(),
		OverlapRatio:       res.OverlapRatio,
	}
	for _, ps := range res.Phases {
		rep.Phases = append(rep.Phases, streamsBenchPhase{
			Phase:              ps.Name,
			SerialModeledS:     (ps.Modeled + ps.OverlapSaved).Seconds(),
			OverlappedModeledS: ps.Modeled.Seconds(),
			OverlappedWallS:    ps.Wall.Seconds(),
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// graphBenchRow is one (dataset, backend) cell of BENCH_graph.json. Only
// the modeled fields participate in the bench_gate regression check;
// wall seconds and edge counts are informational.
type graphBenchRow struct {
	Dataset         string  `json:"dataset"`
	Backend         string  `json:"backend"`
	ModeledS        float64 `json:"modeledS"`
	ReduceModeledS  float64 `json:"reduceModeledS"`
	WallS           float64 `json:"wallS"`
	NNZ             int64   `json:"nnz"`
	AcceptedEdges   int64   `json:"acceptedEdges"`
	ReducedEdges    int64   `json:"reducedEdges"`
	Contigs         int     `json:"contigs"`
	N50             int     `json:"n50"`
	PeakDeviceBytes int64   `json:"peakDeviceBytes"`
}

type graphBenchReport struct {
	Rows []graphBenchRow `json:"rows"`
}

// BenchmarkGraphBackends compares the reduce/compress engines — greedy
// and the spmat masked-SpGEMM backend — on two bench-scale datasets,
// checking that spmat removes at least as many edges as greedy (which
// removes none) and reporting modeled seconds per engine. (spmat against
// Myers' sweep is checked by the oracle tests: TestBackendDifferential in
// internal/core and FuzzTwoHopMatchesMyers in internal/spmat.) When
// BENCH_GRAPH_OUT names a file, the comparison table is written there as
// JSON for the bench_gate regression check and EXPERIMENTS.md.
func BenchmarkGraphBackends(b *testing.B) {
	backends := []string{"greedy", "spmat"}
	var rep graphBenchReport
	for _, idx := range []int{0, 3} {
		p, rs := benchReads(b, idx)
		results := map[string]*core.Result{}
		for _, backend := range backends {
			backend := backend
			b.Run(fmt.Sprintf("%s/%s", p.Name, backend), func(b *testing.B) {
				b.ReportAllocs()
				var res *core.Result
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cfg := benchConfig(b, p.MinOverlap)
					cfg.GraphBackend = backend
					b.StartTimer()
					var err error
					res, err = Assemble(cfg, rs)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.TotalModeled.Seconds(), "modeled-s")
				b.ReportMetric(float64(res.ReducedEdges), "removed-edges")
				results[backend] = res
			})
		}
		spmat := results["spmat"]
		if spmat == nil {
			continue // sub-benchmark filtered out
		}
		if g := results["greedy"]; g != nil && spmat.ReducedEdges < g.ReducedEdges {
			b.Fatalf("%s: spmat removed %d transitive edges, greedy removed %d",
				p.Name, spmat.ReducedEdges, g.ReducedEdges)
		}
		for _, backend := range backends {
			res := results[backend]
			if res == nil {
				continue
			}
			row := graphBenchRow{
				Dataset:       p.Name,
				Backend:       backend,
				ModeledS:      res.TotalModeled.Seconds(),
				WallS:         res.TotalWall.Seconds(),
				NNZ:           res.AcceptedEdges + res.ReducedEdges,
				AcceptedEdges: res.AcceptedEdges,
				ReducedEdges:  res.ReducedEdges,
				Contigs:       len(res.Contigs),
				N50:           res.ContigStats.N50,
			}
			if ps, ok := res.PhaseByName(core.PhaseReduce); ok {
				row.ReduceModeledS = ps.Modeled.Seconds()
			}
			for _, ps := range res.Phases {
				if ps.PeakDevice > row.PeakDeviceBytes {
					row.PeakDeviceBytes = ps.PeakDevice
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	out := os.Getenv("BENCH_GRAPH_OUT")
	if out == "" || len(rep.Rows) == 0 {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// memBenchRow is one (dataset, scale, backend) cell of BENCH_mem.json.
// The modeled seconds and both host-peak fields participate in the
// bench_gate regression check (keys containing "modeled" or "hostPeak");
// wall seconds and edge counts are informational.
type memBenchRow struct {
	Dataset        string  `json:"dataset"`
	Scale          float64 `json:"scale"`
	Backend        string  `json:"backend"`
	ModeledS       float64 `json:"modeledS"`
	GraphHostPeakB int64   `json:"graphHostPeakB"`
	HostPeakB      int64   `json:"hostPeakB"`
	WallS          float64 `json:"wallS"`
	AcceptedEdges  int64   `json:"acceptedEdges"`
	ReducedEdges   int64   `json:"reducedEdges"`
}

type memBenchReport struct {
	Rows []memBenchRow `json:"rows"`
}

// BenchmarkGraphBackendMemory compares the host-memory footprint of the
// reduce/compress engines — greedy, the spmat edge-list/CSR backend, and
// the succinct compressed store — on the largest profile at two scale
// factors, reporting the graph-attributable host peak the MemTracker
// measured alongside modeled seconds. The tentpole claim is pinned at
// the larger scale: the succinct store's graph peak must be at least 2x
// below the spmat edge-list path's. When BENCH_MEM_OUT names a file,
// the comparison table is written there as JSON for the bench_gate
// regression check and EXPERIMENTS.md.
func BenchmarkGraphBackendMemory(b *testing.B) {
	backends := []string{core.BackendGreedy, core.BackendSpmat, core.BackendSuccinct}
	scales := []float64{0.05, 0.1}
	var rep memBenchReport
	for _, scale := range scales {
		p := readsim.Profiles[3].Scaled(scale)
		_, rs := p.Generate()
		graphPeaks := map[string]int64{}
		for _, backend := range backends {
			backend := backend
			b.Run(fmt.Sprintf("%s/scale=%.2f/%s", p.Name, scale, backend), func(b *testing.B) {
				b.ReportAllocs()
				var res *core.Result
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cfg := benchConfig(b, p.MinOverlap)
					cfg.GraphBackend = backend
					// Total host peak grows with the sort blocks concurrent
					// workers hold; one worker keeps the gated hostPeakB
					// independent of the box's core count.
					cfg.Workers = 1
					b.StartTimer()
					var err error
					res, err = Assemble(cfg, rs)
					if err != nil {
						b.Fatal(err)
					}
				}
				var graphPeak, hostPeak int64
				for _, ps := range res.Phases {
					if ps.GraphHostPeak > graphPeak {
						graphPeak = ps.GraphHostPeak
					}
					if ps.PeakHost > hostPeak {
						hostPeak = ps.PeakHost
					}
				}
				b.ReportMetric(float64(graphPeak), "graph-peak-B")
				b.ReportMetric(res.TotalModeled.Seconds(), "modeled-s")
				graphPeaks[backend] = graphPeak
				rep.Rows = append(rep.Rows, memBenchRow{
					Dataset:        p.Name,
					Scale:          scale,
					Backend:        backend,
					ModeledS:       res.TotalModeled.Seconds(),
					GraphHostPeakB: graphPeak,
					HostPeakB:      hostPeak,
					WallS:          res.TotalWall.Seconds(),
					AcceptedEdges:  res.AcceptedEdges,
					ReducedEdges:   res.ReducedEdges,
				})
			})
		}
		sp, succ := graphPeaks[core.BackendSpmat], graphPeaks[core.BackendSuccinct]
		if scale == scales[len(scales)-1] && sp > 0 && succ > 0 && 2*succ > sp {
			b.Fatalf("%s scale %.2f: succinct graph peak %d B is not 2x below spmat's %d B",
				p.Name, scale, succ, sp)
		}
	}
	out := os.Getenv("BENCH_MEM_OUT")
	if out == "" || len(rep.Rows) == 0 {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationMapKernel compares the paper's block-per-read
// Hillis-Steele map kernel against the rejected per-read-thread scheme
// (Section III-A) on a Mapper: the modeled Map time of the naive kernel is
// worse because its memory accesses are uncoalesced, even when its host
// wall-clock is competitive.
func BenchmarkAblationMapKernel(b *testing.B) {
	p, rs := benchReads(b, 0)
	cfg := benchConfig(b, p.MinOverlap)
	modeled := map[bool]float64{}
	for _, naive := range []bool{false, true} {
		name := "hillis-steele"
		if naive {
			name = "naive-per-read"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				dev := gpu.NewDevice(cfg.GPU, nil)
				m := core.NewMapper(dev, nil, cfg.MinOverlap, cfg.MapBatchReads, rs.MaxLen())
				m.Workers = cfg.Workers
				m.NaiveKernel = naive
				sfxW := kvio.NewPartitionWriters(dir, kvio.Suffix, dev.Meter())
				pfxW := kvio.NewPartitionWriters(dir, kvio.Prefix, dev.Meter())
				b.StartTimer()
				err := m.MapRange(context.Background(), rs, 0, rs.NumReads(), sfxW, pfxW)
				if err == nil {
					err = sfxW.Close()
				}
				if err == nil {
					err = pfxW.Close()
				}
				if err != nil {
					b.Fatal(err)
				}
				modeled[naive] = dev.Meter().Snapshot().Time(cfg.Profile()).Seconds()
			}
			b.ReportMetric(modeled[naive]*1000, "modeled-map-ms")
		})
	}
	if scan, naive := modeled[false], modeled[true]; scan > 0 && naive <= scan {
		b.Errorf("naive kernel modeled Map %.3f ms, scan kernel %.3f ms", naive*1000, scan*1000)
	}
}
