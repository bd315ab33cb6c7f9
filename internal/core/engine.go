package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/graph"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/spmat"
	"repro/internal/succinct"
)

// GraphEngine is the seam between the pipeline tail and a graph backend
// (DESIGN.md, "Graph engines"). Reduce feeds it verified candidates and
// seals it; Compress — or the cluster master, which keeps the sealed
// engine — asks it for paths. The single-node pipeline and the cluster
// master are handed an engine by Node.NewGraphEngine and never ask which one.
//
// Lifecycle: either Add* then Seal (Reduce), or Load (Compress); then
// Live, Stats and Paths in any order; Release exactly once on every path,
// including after a failed Seal or Load.
type GraphEngine interface {
	// Name is the backend label on counters, gauges and spans.
	Name() string
	// Add offers one verified candidate overlap. Candidates arrive in
	// descending overlap length — the order the greedy rule depends on and
	// every other engine ignores. A spilling engine latches its first I/O
	// error for Seal to return.
	Add(u, v uint32, l uint16)
	// AddHostBytes is the modeled host-memory traffic of one Add: random
	// cache lines for an in-memory builder, one sequential line for a
	// spill append. The cluster charges it to its serialized-reduce meter.
	AddHostBytes() int64
	// Seal ends the feed: the engine builds its store and removes
	// redundant edges.
	Seal(ctx context.Context) error
	// Load builds the store from a sorted edges.kv stream instead of
	// Add+Seal. The edges are a sealed engine's Live output, so nothing is
	// reduced again.
	Load(next func() (graph.Edge, bool, error)) error
	// Live iterates the surviving directed edges in the order edges.kv
	// persists them.
	Live() LiveEdges
	// Stats reports the sealed store's totals. The greedy engine also
	// answers during the feed (its NNZ is the edges accepted so far); the
	// two-hop engines have no store before Seal.
	Stats() EngineStats
	// Paths walks the surviving graph into contig paths.
	Paths() ([]graph.Path, error)
	// Release returns the engine's host bytes to the trackers and removes
	// its scratch files.
	Release()
}

// LiveEdges is a pull iterator over an engine's surviving edges. An
// iterator that ends early on a store error reports it from Err.
type LiveEdges interface {
	Next() (graph.Edge, bool)
	Err() error
}

// EngineStats are a sealed engine's totals. NNZ counts the directed edges
// the store held before reduction and Removed the ones reduction dropped;
// Flops and Tiles are the two-hop kernel's product terms and row tiles
// (zero for engines that do not run it).
type EngineStats struct {
	NNZ, Removed, Flops int64
	Tiles               int
}

// NewGraphEngine is the one place a backend is selected: it resolves the
// node's GraphBackend to the engine that implements it, running on the node (a spilling engine keeps its sort_* directory in the
// node's Scratch, swept with the other sort debris after a crash).
func (n *Node) NewGraphEngine(rs dna.ReadSource) GraphEngine {
	base := engineBase{env: n, rs: rs}
	switch n.cfg.backend() {
	case BackendSpmat:
		return &spmatEngine{twoHopEngine{engineBase: base}, spmat.NewBuilder(rs.NumReads())}
	case BackendSuccinct:
		return &succinctEngine{twoHopEngine: twoHopEngine{engineBase: base}}
	}
	e := &greedyEngine{base, graph.New(rs.NumReads())}
	e.hold(e.g.ApproxBytes())
	return e
}

// SealEngine seals a fed engine and publishes its totals as
// graph.<metric>{backend=<Name>} counters.
func SealEngine(ctx context.Context, eng GraphEngine, reg *obs.Registry) (EngineStats, error) {
	if err := eng.Seal(ctx); err != nil {
		return EngineStats{}, err
	}
	st := eng.Stats()
	count := func(metric string, n int64) {
		if n != 0 {
			reg.Counter(fmt.Sprintf("graph.%s{backend=%q}", metric, eng.Name())).Add(n)
		}
	}
	count("nnz", st.NNZ)
	count("removed_edges", st.Removed)
	count("spgemm_flops", st.Flops)
	count("spgemm_tiles", int64(st.Tiles))
	return st, nil
}

// engineBase is what every engine shares: the node it runs on (whose
// configuration it follows) and the account of graph host bytes it still
// holds.
type engineBase struct {
	env  *Node
	rs   dna.ReadSource
	held int64
}

func (b *engineBase) Name() string { return b.env.cfg.backend() }

func (b *engineBase) AddHostBytes() int64 { return 4 * 64 }

// hold charges n graph bytes that stay charged until Release.
func (b *engineBase) hold(n int64) {
	b.env.Graph.Add(n)
	b.held += n
}

func (b *engineBase) Release() {
	b.env.Graph.Release(b.held)
	b.held = 0
}

// edgeSlice adapts a materialized edge list to LiveEdges.
type edgeSlice struct {
	edges []graph.Edge
	i     int
}

func (s *edgeSlice) Next() (graph.Edge, bool) {
	if s.i == len(s.edges) {
		return graph.Edge{}, false
	}
	s.i++
	return s.edges[s.i-1], true
}

func (s *edgeSlice) Err() error { return nil }

// loadEdges drains a Load stream into install.
func loadEdges(next func() (graph.Edge, bool, error), install func(graph.Edge)) error {
	for {
		e, ok, err := next()
		if err != nil || !ok {
			return err
		}
		install(e)
	}
}

// greedyEngine is the paper's bit-vector graph (Section III-C): each
// vertex keeps its first — longest — admissible out-edge, so there is
// nothing to reduce at Seal.
type greedyEngine struct {
	engineBase
	g *graph.Graph
}

func (e *greedyEngine) Add(u, v uint32, l uint16)  { e.g.AddCandidate(u, v, l) }
func (e *greedyEngine) Seal(context.Context) error { return nil }
func (e *greedyEngine) Live() LiveEdges            { return &edgeSlice{edges: e.g.Edges()} }
func (e *greedyEngine) Stats() EngineStats         { return EngineStats{NNZ: e.g.NumEdges()} }

func (e *greedyEngine) Load(next func() (graph.Edge, bool, error)) error {
	return loadEdges(next, e.g.InstallEdge)
}

func (e *greedyEngine) Paths() ([]graph.Path, error) {
	return e.g.Traverse(e.rs.VertexLen, graph.TraverseOptions{
		IncludeSingletons: e.env.cfg.IncludeSingletons,
		BreakCycles:       e.env.cfg.BreakCycles,
	}), nil
}

// twoHopEngine is everything the row-store backends share once a store
// exists: the masked two-hop reduction, the live view over store and
// mask, and the unitig walk on that view. spmatEngine and succinctEngine
// embed it and supply only how the store is built.
type twoHopEngine struct {
	engineBase
	store graph.RowStore
	red   graph.TwoHopResult
}

// reduce runs the store's TransitiveReduce under the pipeline's budget.
func (e *twoHopEngine) reduce(ctx context.Context,
	run func(context.Context, graph.TwoHopConfig) (*graph.TwoHopResult, error)) error {
	red, err := run(ctx, graph.TwoHopConfig{
		Device:    e.env.Device,
		VertexLen: e.rs.VertexLen,
		Fuzz:      e.env.cfg.TransitiveFuzz,
		// The same device budget the sort phase works within, so the pass
		// honors the DeviceDemandBytes lease multi-tenant admission uses.
		MaxResidentBytes: 4 * int64(e.env.cfg.DeviceBlockPairs) * kv.PairBytes,
		Overlap:          e.env.Ledger,
	})
	if err != nil {
		return err
	}
	e.red = *red
	return nil
}

func (e *twoHopEngine) Live() LiveEdges { return graph.NewLiveView(e.store, e.red.Mask) }

func (e *twoHopEngine) Stats() EngineStats {
	return EngineStats{NNZ: e.store.NNZ(), Removed: e.red.Removed, Flops: e.red.Flops, Tiles: e.red.Tiles}
}

func (e *twoHopEngine) Paths() ([]graph.Path, error) {
	view := graph.NewLiveView(e.store, e.red.Mask)
	paths := sgraph.UnitigsOf(view, e.rs.VertexLen, e.env.cfg.IncludeSingletons)
	return paths, view.Err()
}

// spmatEngine builds the CSR matrix in memory: candidates buffer as packed
// keys in the builder's row buckets, Seal sorts and packs them. The builder
// is order-independent, so worker or cluster arrival order cannot change the
// matrix or the bytes charged for it.
type spmatEngine struct {
	twoHopEngine
	b *spmat.Builder
}

func (e *spmatEngine) Add(u, v uint32, l uint16) { e.b.AddOverlap(u, v, l) }

func (e *spmatEngine) Seal(ctx context.Context) error {
	// Builder and matrix coexist while Build packs one from the other.
	buffered := e.b.ApproxBytes()
	e.env.Graph.Add(buffered)
	m := e.b.Build()
	e.hold(m.ApproxBytes())
	e.env.Graph.Release(buffered)
	e.b, e.store = nil, m
	return e.reduce(ctx, m.TransitiveReduce)
}

// Load validates ordering and ranges as it packs, so a corrupted edge file
// fails here instead of spelling garbage.
func (e *spmatEngine) Load(next func() (graph.Edge, bool, error)) error {
	m, err := spmat.FromEdgeRuns(2*e.rs.NumReads(), next)
	if err != nil {
		return err
	}
	e.store = m
	e.hold(m.ApproxBytes())
	return nil
}

// Paths spells unitigs from an adjacency-list copy of the live matrix, as
// spmat's Compress always has, although the view can be walked directly
// (twoHopEngine.Paths, which succinct uses): benchmark/trace.go replays
// FromEdgeRuns + this copy + Unitigs as the Compress stage's
// sgraph.unitigs layer and rejects a trace whose stage runs more than 30%
// under its replay, which the direct walk does. The copy goes when the
// benchmark's replay does (ROADMAP item 1(ii)).
func (e *spmatEngine) Paths() ([]graph.Path, error) {
	fg := sgraph.New(e.rs.NumReads())
	view := graph.NewLiveView(e.store, e.red.Mask)
	for ed, ok := view.Next(); ok; ed, ok = view.Next() {
		fg.InstallEdge(ed.U, ed.V, ed.Len)
	}
	e.hold(fg.ApproxBytes())
	return fg.Unitigs(e.rs.VertexLen, e.env.cfg.IncludeSingletons), view.Err()
}

// succinctEngine builds the compressed store out of core: candidates (and
// their complements) spill to a scratch kv file as they arrive, the
// external sorter orders them by (U, V), and the succinct builder consumes
// the final merge directly — the full edge list never materializes in host
// memory. The builder charges its own bytes to env.Graph as they grow.
type succinctEngine struct {
	twoHopEngine
	dir   string // the spill scratch, once created
	spill *kvio.Writer
	err   error // first spill error
	b     *succinct.Builder
}

func (e *succinctEngine) AddHostBytes() int64 { return 64 }

func (e *succinctEngine) spillPath() string { return filepath.Join(e.dir, "cand.kv") }

// openSpill creates the scratch file on first use, so an engine that only
// Loads never touches the directory.
func (e *succinctEngine) openSpill() {
	if e.dir != "" {
		return
	}
	e.dir = filepath.Join(e.env.Scratch, "sort_succinct")
	if e.err = os.MkdirAll(e.dir, 0o755); e.err == nil {
		e.spill, e.err = kvio.NewScratchWriter(e.spillPath(), e.env.Meter)
	}
}

func (e *succinctEngine) Add(u, v uint32, l uint16) {
	ed, ec, ok := graph.OverlapEdges(u, v, l)
	if !ok {
		return
	}
	if e.openSpill(); e.err != nil {
		return
	}
	if e.err = e.spill.Write(ed.Pair()); e.err == nil {
		e.err = e.spill.Write(ec.Pair())
	}
}

func (e *succinctEngine) closeSpill() {
	if e.spill == nil {
		return
	}
	if err := e.spill.Close(); e.err == nil {
		e.err = err
	}
	e.spill = nil
}

func (e *succinctEngine) Seal(ctx context.Context) error {
	e.openSpill() // an engine fed nothing still sorts an (empty) spill
	e.closeSpill()
	if e.err != nil {
		return e.err
	}
	b, err := succinct.NewBuilder(2*e.rs.NumReads(), e.env.Graph)
	if err != nil {
		return err
	}
	e.b = b
	// Sorted pairs order by (Key.Hi, Key.Lo) = (U<<32|V, Len): exactly the
	// non-decreasing (U, V) runs the builder requires, duplicates adjacent
	// for its keep-the-longest dedupe.
	_, err = extsort.SortStream(ctx, extsort.Config{
		Device:           e.env.Device,
		Meter:            e.env.Meter,
		HostMem:          e.env.HostMem,
		HostBlockPairs:   e.env.cfg.HostBlockPairs,
		DeviceBlockPairs: e.env.cfg.DeviceBlockPairs,
		TempDir:          e.dir,
		Obs:              e.env.cfg.Obs,
		Overlap:          e.env.Ledger,
	}, e.spillPath(), func(batch []kv.Pair) error {
		for _, pr := range batch {
			if err := b.Push(graph.EdgeOfPair(pr)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	g, err := b.Finish()
	if err != nil {
		return err
	}
	e.adopt(g)
	return e.reduce(ctx, g.TransitiveReduce)
}

// adopt takes over a finished store and the charge its builder left.
func (e *succinctEngine) adopt(g *succinct.Graph) {
	e.b, e.store = nil, g
	e.held += g.HostBytes()
}

// Load streams the persisted runs straight into the builder, which
// validates ordering and ranges as it goes.
func (e *succinctEngine) Load(next func() (graph.Edge, bool, error)) error {
	g, err := succinct.FromEdgeRunsMetered(2*e.rs.NumReads(), e.env.Graph, next)
	if err == nil {
		e.adopt(g)
	}
	return err
}

func (e *succinctEngine) Release() {
	e.closeSpill()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	if e.b != nil {
		e.b.Abandon() // a build that failed part-way
		e.b = nil
	}
	e.engineBase.Release()
}
