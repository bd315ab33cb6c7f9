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
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/kv"
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

// streamsBenchPhase is one phase's serial-vs-overlapped comparison in
// BENCH_streams.json.
type streamsBenchPhase struct {
	Phase              string  `json:"phase"`
	SerialModeledS     float64 `json:"serialModeledS"`
	OverlappedModeledS float64 `json:"overlappedModeledS"`
	SerialWallS        float64 `json:"serialWallS"`
	OverlappedWallS    float64 `json:"overlappedWallS"`
}

type streamsBenchReport struct {
	SerialModeledS     float64             `json:"serialModeledS"`
	OverlappedModeledS float64             `json:"overlappedModeledS"`
	SavedS             float64             `json:"savedS"`
	OverlapRatio       float64             `json:"overlapRatio"`
	Phases             []streamsBenchPhase `json:"phases"`
}

// BenchmarkPipelineStreams assembles the largest bench-scale dataset with
// modeled streams off and on. Output and counters are identical by
// construction (see core's streams tests); what the benchmark shows is
// the modeled seconds falling and the wall-clock cost of the stream
// machinery staying negligible. When BENCH_STREAMS_OUT names a file, the
// per-phase serial vs overlapped comparison is written there as JSON.
func BenchmarkPipelineStreams(b *testing.B) {
	p, rs := benchReads(b, 3)
	results := map[bool]*core.Result{}
	for _, streams := range []bool{false, true} {
		streams := streams
		name := "serial"
		if streams {
			name = "overlapped"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := benchConfig(b, p.MinOverlap)
				cfg.Streams = streams
				b.StartTimer()
				var err error
				res, err = Assemble(cfg, rs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.TotalModeled.Seconds(), "modeled-s")
			results[streams] = res
		})
	}
	serial, overlapped := results[false], results[true]
	if serial == nil || overlapped == nil {
		return // sub-benchmark filtered out
	}
	if overlapped.Counters != serial.Counters {
		b.Fatalf("streams changed counters: %+v vs %+v", overlapped.Counters, serial.Counters)
	}
	out := os.Getenv("BENCH_STREAMS_OUT")
	if out == "" {
		return
	}
	rep := streamsBenchReport{
		SerialModeledS:     serial.TotalModeled.Seconds(),
		OverlappedModeledS: overlapped.TotalModeled.Seconds(),
		SavedS:             overlapped.OverlapSaved.Seconds(),
		OverlapRatio:       overlapped.OverlapRatio,
	}
	for i, ps := range serial.Phases {
		po := overlapped.Phases[i]
		rep.Phases = append(rep.Phases, streamsBenchPhase{
			Phase:              ps.Name,
			SerialModeledS:     ps.Modeled.Seconds(),
			OverlappedModeledS: po.Modeled.Seconds(),
			SerialWallS:        ps.Wall.Seconds(),
			OverlappedWallS:    po.Wall.Seconds(),
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

// BenchmarkGraphBackends compares the reduce/compress engines — greedy,
// the sgraph full graph, and the spmat masked-SpGEMM backend — on two
// bench-scale datasets, pinning the refinement contract (spmat never
// removes fewer transitive edges than the Myers sweep, and the greedy
// engine removes none) and reporting modeled seconds per engine. When
// BENCH_GRAPH_OUT names a file, the comparison table is written there as
// JSON for the bench_gate regression check and EXPERIMENTS.md.
func BenchmarkGraphBackends(b *testing.B) {
	backends := []string{"greedy", "full", "spmat"}
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
		full, spmat := results["full"], results["spmat"]
		if full == nil || spmat == nil {
			continue // sub-benchmark filtered out
		}
		// The refinement contract the differential tests pin at small
		// scale must hold at bench scale too.
		if spmat.ReducedEdges < full.ReducedEdges {
			b.Fatalf("%s: spmat removed %d transitive edges, full graph removed %d",
				p.Name, spmat.ReducedEdges, full.ReducedEdges)
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

// BenchmarkAblationPartitioning compares the paper's length-based
// distributed shuffle with the fingerprint-range partitioning proposed as
// future work (Section IV-D), on a 4-node cluster.
func BenchmarkAblationPartitioning(b *testing.B) {
	p, rs := benchReads(b, 0)
	for _, byFp := range []bool{false, true} {
		name := "by-length"
		if byFp {
			name = "by-fingerprint"
		}
		b.Run(name, func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := cluster.DefaultConfig(b.TempDir(), 4)
				cfg.MinOverlap = p.MinOverlap
				cfg.HostBlockPairs = 1 << 14
				cfg.DeviceBlockPairs = 1 << 11
				cfg.InputBlockReads = 256
				cfg.PartitionByFingerprint = byFp
				b.StartTimer()
				cl, err := cluster.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := cl.Assemble(rs)
				if err != nil {
					b.Fatal(err)
				}
				modeled = res.TotalModeled.Seconds()
			}
			b.ReportMetric(modeled, "modeled-s")
		})
	}
}

// BenchmarkAblationTraversal compares the sequential path walk against
// the BSP pointer-jumping traversal (the paper's future-work parallel graph
// processing) on one run's greedy graph, rebuilt from its edges.kv.
func BenchmarkAblationTraversal(b *testing.B) {
	p, rs := benchReads(b, 3)
	cfg := benchConfig(b, p.MinOverlap)
	cfg.KeepIntermediate = true
	if _, err := Assemble(cfg, rs); err != nil {
		b.Fatal(err)
	}
	g := graph.New(rs.NumReads())
	r, err := kvio.NewReader(filepath.Join(cfg.Workspace, "edges.kv"), nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]kv.Pair, 4096)
	for {
		n, err := r.ReadBatch(buf)
		for _, pr := range buf[:n] {
			g.InstallEdge(graph.EdgeOfPair(pr))
		}
		if err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
	}
	r.Close()
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "bsp-pointer-jumping"
		}
		b.Run(name, func(b *testing.B) {
			opts := graph.TraverseOptions{BreakCycles: !parallel}
			dev := gpu.NewDevice(cfg.GPU, nil)
			for i := 0; i < b.N; i++ {
				if parallel {
					g.TraverseParallel(dev, rs.VertexLen, opts)
				} else {
					g.Traverse(rs.VertexLen, opts)
				}
			}
		})
	}
}
