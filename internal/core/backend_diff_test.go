package core

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dna"
	"repro/internal/graph"
	"repro/internal/quality"
	"repro/internal/readsim"
	"repro/internal/sga"
	"repro/internal/sgraph"
)

// The backend differential harness runs the full pipeline under every
// graph engine — greedy, the spmat sparse-matrix backend and the succinct
// compressed store — over a spread of read profiles, and holds them to a
// reference built outside the pipeline: every exact overlap the FM-index
// finds (package sga), reduced by Myers' sweep (package sgraph). It pins:
//
//   - spmat's string graph has the reference's edges: accepted plus
//     removed equals the reference's total, which holds the pipeline's
//     candidates to the FM-index.
//   - spmat removes at least as many transitive edges as the Myers sweep
//     (masked SpGEMM sees witness pairs the sweep's in-play pruning
//     skips; see internal/spmat's package doc).
//   - When the removed-edge counts agree, the live edge sets agree
//     (superset + equal cardinality): spmat's edges.kv equals the sweep's
//     live edges.
//   - succinct matches spmat bit for bit.
//   - The spmat FASTA is either byte-identical to the default greedy
//     pipeline's output, or it is a documented refinement pinned by a
//     golden file under testdata/golden/ — any other drift fails.
//
// Regenerate the goldens after an intentional engine change with
//
//	go test ./internal/core -run TestBackendDifferential -update
var updateGolden = flag.Bool("update", false, "rewrite backend differential golden FASTA files")

type backendShape struct {
	name   string
	genome readsim.GenomeParams
	reads  readsim.ReadParams
	mutate func(*Config)
	// clean marks repeat-free genomes where every engine must produce
	// zero misassemblies and only genome-substring contigs.
	clean bool
}

// backendShapes spans the differential surface: coverage density, read
// length, repeat content, overhang fuzz, singleton emission, and the
// strandedness of the simulated library.
var backendShapes = []backendShape{
	{
		name:   "dense_short",
		genome: readsim.GenomeParams{Length: 4000, Seed: 601},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 14, Seed: 602},
		mutate: func(c *Config) { c.DedupeReads = true; c.VerifyOverlaps = true },
		clean:  true,
	},
	{
		name:   "long_reads",
		genome: readsim.GenomeParams{Length: 6000, Seed: 611},
		reads:  readsim.ReadParams{ReadLen: 100, Coverage: 10, Seed: 612},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  true,
	},
	{
		name:   "sparse_singletons",
		genome: readsim.GenomeParams{Length: 3000, Seed: 621},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 6, Seed: 622},
		mutate: func(c *Config) { c.DedupeReads = true; c.IncludeSingletons = true },
		clean:  true,
	},
	{
		name: "repeats",
		genome: readsim.GenomeParams{
			Length: 5000, RepeatLen: 200, RepeatCount: 3, Seed: 631,
		},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 16, Seed: 632},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  false,
	},
	{
		name:   "overhang_fuzz",
		genome: readsim.GenomeParams{Length: 4500, Seed: 641},
		reads:  readsim.ReadParams{ReadLen: 72, Coverage: 12, Seed: 642},
		mutate: func(c *Config) { c.DedupeReads = true; c.TransitiveFuzz = 2 },
		clean:  true,
	},
	{
		name:   "forward_only",
		genome: readsim.GenomeParams{Length: 3500, Seed: 651},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 12, Seed: 652, ForwardOnly: true},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  true,
	},
}

// runBackendShape assembles one shape under one engine and returns the
// result, the FASTA bytes written to disk and the live edges the run
// persisted to edges.kv.
func runBackendShape(t *testing.T, shape backendShape, backend string) (*Result, []byte, []graph.Edge) {
	t.Helper()
	cfg := smallConfig(t)
	shape.mutate(&cfg)
	cfg.GraphBackend = backend
	cfg.KeepIntermediate = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(shapeReads(shape))
	if err != nil {
		t.Fatalf("engine %s: %v", backend, err)
	}
	fasta, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatalf("engine %s: %v", backend, err)
	}
	it, err := newEdgeFileIterator(filepath.Join(cfg.Workspace, edgeFileName), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var live []graph.Edge
	if err := loadEdges(it.Next, func(e graph.Edge) { live = append(live, e) }); err != nil {
		t.Fatal(err)
	}
	return res, fasta, live
}

func shapeReads(shape backendShape) *dna.ReadSet {
	return readsim.Simulate(readsim.Genome(shape.genome), shape.reads)
}

// myersReference builds a shape's reference string graph outside the
// pipeline: the reads prepared as the pipeline prepares them, every exact
// overlap of at least MinOverlap the FM-index finds, and Myers' sweep. It
// returns the reduced graph and the number of edges the sweep removed.
func myersReference(t *testing.T, shape backendShape) (*sgraph.Graph, int64) {
	t.Helper()
	cfg := smallConfig(t)
	shape.mutate(&cfg)
	prepared, _, err := cfg.PrepareReads(shapeReads(shape))
	if err != nil {
		t.Fatal(err)
	}
	reads := prepared.(*dna.ReadSet)
	g := sgraph.New(reads.NumReads())
	for _, e := range sga.BuildIndex(reads).AllOverlaps(cfg.MinOverlap) {
		g.AddOverlap(e.U, e.V, e.Len)
	}
	return g, g.TransitiveReduce(reads.VertexLen, cfg.TransitiveFuzz)
}

// sortedEdges returns edges ordered by (U, V), the order edges.kv holds
// a two-hop engine's live set in.
func sortedEdges(edges []graph.Edge) []graph.Edge {
	out := slices.Clone(edges)
	slices.SortFunc(out, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return out
}

func goldenPath(shape string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("backend_%s.fasta", shape))
}

func TestBackendDifferential(t *testing.T) {
	for _, shape := range backendShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			_, greedyFasta, _ := runBackendShape(t, shape, BackendGreedy)
			sp, spFasta, spLive := runBackendShape(t, shape, BackendSpmat)
			succ, succFasta, _ := runBackendShape(t, shape, BackendSuccinct)
			ref, refRemoved := myersReference(t, shape)

			// The succinct backend runs spmat's exact reduction predicate
			// over the compressed store, so its counters and contigs must
			// match spmat bit for bit — which transitively pins it against
			// greedy (or the committed golden) below.
			if succ.AcceptedEdges != sp.AcceptedEdges || succ.ReducedEdges != sp.ReducedEdges {
				t.Errorf("succinct edges %d+%d differ from spmat %d+%d",
					succ.AcceptedEdges, succ.ReducedEdges, sp.AcceptedEdges, sp.ReducedEdges)
			}
			if !bytes.Equal(succFasta, spFasta) {
				t.Errorf("succinct FASTA differs from spmat FASTA")
			}

			t.Logf("reference: %d edges, %d removed by the sweep; spmat removed %d",
				ref.NumEdges(true), refRemoved, sp.ReducedEdges)
			// The pipeline's candidates build the FM-index's string graph.
			if total := ref.NumEdges(true); sp.AcceptedEdges+sp.ReducedEdges != total {
				t.Errorf("spmat saw %d+%d edges, the FM-index reference %d",
					sp.AcceptedEdges, sp.ReducedEdges, total)
			}
			// The masked SpGEMM removes a superset of the Myers sweep's
			// transitive edges — never fewer.
			if sp.ReducedEdges < refRemoved {
				t.Errorf("spmat removed %d transitive edges, Myers' sweep removed %d",
					sp.ReducedEdges, refRemoved)
			}
			// Superset + equal count ⇒ equal removed set ⇒ identical live
			// graph.
			if sp.ReducedEdges == refRemoved &&
				!slices.Equal(spLive, sortedEdges(ref.DirectedEdges())) {
				t.Errorf("equal removed-edge counts (%d) but spmat's live edges differ from the sweep's",
					sp.ReducedEdges)
			}

			// Against the default greedy pipeline the output is either
			// byte-identical or a golden-pinned refinement.
			golden := goldenPath(shape.name)
			if *updateGolden {
				if bytes.Equal(spFasta, greedyFasta) {
					if err := os.Remove(golden); err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
				} else {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, spFasta, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if bytes.Equal(spFasta, greedyFasta) {
				if _, err := os.Stat(golden); err == nil {
					t.Errorf("spmat FASTA matches greedy but a stale golden exists; rerun with -update")
				}
			} else {
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("spmat FASTA diverges from greedy and no golden pins it (rerun with -update): %v", err)
				}
				if !bytes.Equal(spFasta, want) {
					t.Errorf("spmat FASTA drifted from the committed golden %s", golden)
				}
			}

			// Quality floor: the refinement must never invent sequence.
			genome := readsim.Genome(shape.genome)
			rep := quality.Evaluate(genome, sp.Contigs)
			if shape.clean {
				if rep.MisassembledContigs != 0 {
					t.Errorf("spmat produced %d misassembled contigs", rep.MisassembledContigs)
				}
				for i, c := range sp.Contigs {
					if !isSubstring(genome, c) {
						t.Errorf("spmat contig %d is not a genome substring", i)
					}
				}
			}
			if rep.CoverageFraction() < 0.80 {
				t.Errorf("spmat coverage = %.3f", rep.CoverageFraction())
			}
		})
	}
}
