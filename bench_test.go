// Benchmarks of the pipeline's configurations beyond the paper's tables:
// worker scaling, the graph backends and their host memory, and the
// ablations. Each runs at a reduced scale and reports modeled seconds
// alongside Go's wall-clock measurement; the backend comparisons assert
// their claims and run in `make bench-gate`. Their deterministic numbers
// are pinned exactly in tier-1 (internal/cluster's TestModeledPins). The
// paper's tables and figures are cmd/lasagna-bench's, asserted by its
// TestPaperShapes.
//
//	go test -bench=. -benchmem
package lasagna

import (
	"context"
	"fmt"
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

// BenchmarkGraphBackends compares the reduce/compress engines — greedy
// and the spmat masked-SpGEMM backend — on two bench-scale datasets,
// checking that spmat removes at least as many edges as greedy (which
// removes none) and reporting modeled seconds per engine, with the
// modeled seconds the stream overlap hid (the additive figure is their
// sum; TestStreamsIdenticalOutputLowerModeledTime holds each phase's
// saving exactly). (spmat against Myers' sweep is checked by the oracle
// tests: TestBackendDifferential in internal/core and
// FuzzTwoHopMatchesMyers in internal/spmat.)
func BenchmarkGraphBackends(b *testing.B) {
	backends := []string{"greedy", "spmat"}
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
				b.ReportMetric(res.OverlapSaved.Seconds(), "overlap-saved-s")
				b.ReportMetric(float64(res.ReducedEdges), "removed-edges")
				results[backend] = res
			})
		}
		// A cell is nil when its sub-benchmark was filtered out.
		if sp, g := results["spmat"], results["greedy"]; sp != nil && g != nil && sp.ReducedEdges < g.ReducedEdges {
			b.Fatalf("%s: spmat removed %d transitive edges, greedy removed %d",
				p.Name, sp.ReducedEdges, g.ReducedEdges)
		}
	}
}

// BenchmarkGraphBackendMemory compares the host-memory footprint of the
// reduce/compress engines — greedy, the spmat edge-list/CSR backend, and
// the succinct compressed store — on the largest profile at two scale
// factors, reporting the graph-attributable host peak the MemTracker
// measured, and the whole run's tracked host peak, alongside modeled
// seconds. The store's claim is asserted at the larger scale: the succinct
// store's graph peak must be at least 2x below the spmat edge-list
// path's.
func BenchmarkGraphBackendMemory(b *testing.B) {
	backends := []string{core.BackendGreedy, core.BackendSpmat, core.BackendSuccinct}
	scales := []float64{0.05, 0.1}
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
					// workers hold; one worker keeps host-peak-B
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
				b.ReportMetric(float64(hostPeak), "host-peak-B")
				b.ReportMetric(res.TotalModeled.Seconds(), "modeled-s")
				graphPeaks[backend] = graphPeak
			})
		}
		sp, succ := graphPeaks[core.BackendSpmat], graphPeaks[core.BackendSuccinct]
		if scale == scales[len(scales)-1] && sp > 0 && succ > 0 && 2*succ > sp {
			b.Fatalf("%s scale %.2f: succinct graph peak %d B is not 2x below spmat's %d B",
				p.Name, scale, succ, sp)
		}
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
