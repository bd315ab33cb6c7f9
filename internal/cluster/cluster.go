// Package cluster implements the distributed LaSAGNA of Section III-E:
// multiple nodes, each with private scratch storage and its own simulated
// GPU, cooperating through master-assigned input blocks, an all-to-all
// shuffle of length partitions, and a reduce phase serialized by passing
// the out-degree bit-vector from the node owning partition l+1 to the
// node owning partition l. The simulation applies every partition's
// candidates to one graph engine on the master, in that order, and
// charges the token's hops and the edges' trips to the network.
//
// A cluster run is a core run on n nodes: it is configured by core.Config
// (per node) and reports a core.Result, and every node runs core's Map,
// Sort and overlap-finding bodies. Nodes are simulated in-process: each
// runs its phase work in its own goroutine against its own storage
// directory, device, and cost meter. The original system's GASNet active
// messages become direct metered reads of the peer's partition file (the
// paper's message handler does exactly that: read the requested partition,
// respond with a chunk), with cross-node bytes charged to the network.
// Per-phase modeled time is the maximum over nodes for the parallel
// phases, plus the serialized graph-building and token-forwarding
// component in the reduce phase — reproducing the paper's t_o*p/n + t_g*p
// scalability bound.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/contig"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config parameterizes a cluster run: the core configuration every node
// follows (block sizes and Workers apply per node; the cost profile adds
// InfiniBand links) plus what Section III-E adds.
type Config struct {
	core.Config
	// Nodes is the number of simulated machines.
	Nodes int
	// InputBlockReads is the size of the input blocks the master hands
	// out during the map phase; 0 means 2048.
	InputBlockReads int
	// Fleet, when set, supplies the nodes' devices instead of fresh
	// per-node cards: node i runs on Fleet.Device(i) and meters on that
	// device's meter, so a serving layer that leased fleet devices to a
	// sharded job sees the job's device traffic on the cards it placed it
	// on. Requires Fleet.Size() >= Nodes. GPU must still describe the
	// per-node card for cost modeling and manifest fingerprints; callers
	// hand the cluster a fleet whose devices match it.
	Fleet *gpu.Fleet
}

// DefaultConfig is core.DefaultConfig for an n-node SuperMic-style
// cluster: K20X nodes on 56 Gb/s InfiniBand, each node serial.
func DefaultConfig(workspace string, nodes int) Config {
	cfg := core.DefaultConfig(workspace)
	cfg.GPU = gpu.K20X
	cfg.Workers = 1
	return Config{Config: cfg, Nodes: nodes}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	}
	if c.InputBlockReads < 0 {
		return fmt.Errorf("cluster: InputBlockReads must be >= 0, got %d", c.InputBlockReads)
	}
	if c.Fleet != nil && c.Fleet.Size() < c.Nodes {
		return fmt.Errorf("cluster: %d nodes need %d fleet devices, fleet has %d",
			c.Nodes, c.Nodes, c.Fleet.Size())
	}
	return c.Config.Validate()
}

// blockReads resolves InputBlockReads.
func (c Config) blockReads() int {
	if c.InputBlockReads == 0 {
		return 2048
	}
	return c.InputBlockReads
}

// Fingerprint hashes what one node's manifest is valid for: core's
// output-relevant configuration plus the cluster geometry. The node count
// and identity are folded in because both change what any single node's
// storage holds. The literal fpart=false stands for the retired
// fingerprint-range shuffle, so manifests written before it left stay
// resumable.
func (c Config) Fingerprint(nodeID int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|nodes=%d|node=%d|blk=%d|fpart=false", c.Config.Fingerprint(),
		c.Nodes, nodeID, c.blockReads())
	return hex.EncodeToString(h.Sum(nil))
}

// PhaseShuffle is the cluster-only phase between map and sort: the
// all-to-all aggregation of partitions onto their owners.
const PhaseShuffle core.PhaseName = "Shuffle"

// node is one simulated compute node: core's node runtime on private
// storage (its Scratch), plus what the node holds during a run.
type node struct {
	*core.Node
	id     int
	runner *core.StageRunner // the node's manifest over nodeStages
	counts map[int]int64     // owned-partition tuple counts after shuffle
	passes int               // most disk passes any of its sorts took
}

// Cluster is a simulated multi-node deployment.
type Cluster struct {
	cfg   Config
	nodes []*node
	// serial meters the reduce phase's serialized component: feeding the
	// master's graph engine, and what crosses the network to reach it.
	serial *costmodel.Meter

	// FaultHook, when set, fires after a node commits a stage to its
	// manifest, mirroring core.Pipeline.FaultHook. Returning an error
	// aborts the run as a node crash at that point would; the node-restart
	// tests inject crashes through it.
	FaultHook func(nodeID int, stage core.PhaseName) error
}

// Result reports a distributed assembly as core's Result — Phases include
// Shuffle, Counters sum every node meter and the serialized-reduce meter,
// and SortDiskPasses is the worst node's — plus the per-node view.
type Result struct {
	core.Result
	NodeModeled map[core.PhaseName][]time.Duration // per-node modeled time per phase

	// ReduceOverlapModeled (t_o) is the slowest node's modeled time for
	// the parallel overlap-finding part of the reduce phase, and
	// ReduceSerialModeled (t_g) is the serialized graph-building and
	// token-forwarding component — the two terms of the paper's
	// t_o*p/n + t_g*p scalability bound (Section III-E.3). Their ratio
	// bounds useful cluster size at n_max = t_o/t_g.
	ReduceOverlapModeled, ReduceSerialModeled time.Duration
}

// New creates the cluster and its per-node scratch directories.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, serial: costmodel.NewMeter()}
	cfg.Obs.Tracer().NameProcess(0, "coordinator")
	for i := 0; i < cfg.Nodes; i++ {
		dir := filepath.Join(cfg.Workspace, fmt.Sprintf("node%02d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		dev := gpu.NewDevice(cfg.GPU, nil)
		if cfg.Fleet != nil {
			dev = cfg.Fleet.Device(i)
		}
		cfg.Obs.Tracer().NameProcess(int64(i)+1, fmt.Sprintf("node%02d", i))
		c.nodes = append(c.nodes, &node{id: i,
			Node: core.NewNode(cfg.Config, dev, nodeTrack(i), dir)})
	}
	return c, nil
}

// track returns node n's stage lane in the trace (the coordinator owns
// pid 0, so node i maps to pid i+1).
func nodeTrack(id int) obs.Track { return obs.Track{Pid: int64(id) + 1} }

// tracked runs fn, one whole cluster phase, between its Config.Progress
// events.
func (c *Cluster) tracked(name core.PhaseName, fn func() error) error {
	if c.cfg.Progress == nil {
		return fn()
	}
	c.cfg.Progress(string(name), core.ProgressStart)
	err := fn()
	if err != nil {
		c.cfg.Progress(string(name), core.ProgressFailed)
	} else {
		c.cfg.Progress(string(name), core.ProgressDone)
	}
	return err
}

// runPhase executes fn(node) on every node concurrently, each under its
// own Measure, and records the phase: wall time is real, modeled time is
// the slowest node, bytes and savings are summed, and memory peaks are
// per-phase maxima.
func (c *Cluster) runPhase(name core.PhaseName, res *Result, fn func(*node) error) error {
	c.cfg.Obs.Log().Debug("phase start", "phase", string(name), "nodes", len(c.nodes))
	phaseSpan := c.cfg.Obs.Tracer().Begin(obs.Track{}, "stage", string(name))
	timer := stats.StartTimer()
	per := make([]stats.PhaseStats, len(c.nodes))
	errs := make([]error, len(c.nodes))
	// Nodes charge each other's meters (a shuffle read is metered where it
	// is served), so no node works before every node has taken its opening
	// snapshot or takes its closing one while another still works.
	var opened, closing, wg sync.WaitGroup
	opened.Add(len(c.nodes))
	closing.Add(len(c.nodes))
	for i, n := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i], errs[i] = n.Measure(name, func() error {
				opened.Done()
				opened.Wait()
				err := fn(n)
				closing.Done()
				closing.Wait()
				return err
			})
		}()
	}
	wg.Wait()
	phaseSpan.End()
	ps := foldPhase(per)
	ps.Wall = timer.Elapsed()
	if res.NodeModeled == nil {
		res.NodeModeled = map[core.PhaseName][]time.Duration{}
	}
	for i, p := range per {
		res.NodeModeled[name] = append(res.NodeModeled[name], p.Modeled)
		c.cfg.Obs.Log().Debug("node phase done", "phase", string(name),
			"node", i, "wall", p.Wall, "modeled", p.Modeled, "err", errs[i])
	}
	res.Phases = append(res.Phases, ps)
	res.TotalWall += ps.Wall
	res.TotalModeled += ps.Modeled
	for _, err := range errs {
		if err != nil {
			c.cfg.Obs.Log().Error("phase failed", "phase", string(name), "err", err)
			return err
		}
	}
	c.cfg.Obs.Log().Info("phase done", "phase", string(name),
		"wall", ps.Wall, "modeled", ps.Modeled)
	return nil
}

// foldPhase is one phase seen from the cluster: the nodes ran side by
// side, so modeled time and the memory peaks are the worst node's while
// traffic and overlap savings add up.
func foldPhase(per []stats.PhaseStats) stats.PhaseStats {
	ps := stats.PhaseStats{Name: per[0].Name}
	for _, p := range per {
		ps.Modeled = max(ps.Modeled, p.Modeled)
		ps.PeakHost = max(ps.PeakHost, p.PeakHost)
		ps.PeakDevice = max(ps.PeakDevice, p.PeakDevice)
		ps.GraphHostPeak = max(ps.GraphHostPeak, p.GraphHostPeak)
		ps.OverlapSaved += p.OverlapSaved
		ps.DiskRead += p.DiskRead
		ps.DiskWrite += p.DiskWrite
		ps.NetBytes += p.NetBytes
		ps.PCIeBytes += p.PCIeBytes
		ps.DeviceOps += p.DeviceOps
	}
	return ps
}

// nodeStages is the per-node stage graph covered by each node's run
// manifest, in execution order. Reduce and compress are not checkpointed
// (their state is cross-node and in-memory).
var nodeStages = []core.PhaseName{core.PhaseMap, PhaseShuffle, core.PhaseSort}

// runStage runs one checkpointed per-node stage on every node: as one
// measured phase, or — when the lockstep resume point is past it —
// replayed from every node's manifest, reported only as cached.
func (c *Cluster) runStage(res *Result, name core.PhaseName,
	fresh func(*node) (core.StageOutcome, error), replay func(*node, core.StageRecord) error) error {
	run := func(n *node) error {
		return n.runner.Run(core.Stage{
			Name:   name,
			Fresh:  func() (core.StageOutcome, error) { return fresh(n) },
			Cached: func(rec core.StageRecord) error { return replay(n, rec) },
		})
	}
	if slices.Index(nodeStages, name) >= c.nodes[0].runner.ResumeAt() {
		return c.tracked(name, func() error { return c.runPhase(name, res, run) })
	}
	for _, n := range c.nodes {
		if err := run(n); err != nil {
			return err
		}
	}
	return nil
}

// openRunners gives every node its stage runner over its private storage,
// with lockstep resume: every node must have committed (and still
// validate) a stage for any node to skip it, so nodes never run in
// inconsistent stages. Node 0's runner reports the replayed stages to
// Config.Progress, once for the cluster.
func (c *Cluster) openRunners(rs dna.ReadSource) error {
	inputHash := core.InputFingerprint(rs)
	resumeAt, maxAt := len(nodeStages), 0
	for _, n := range c.nodes {
		n.runner = core.NewStageRunner(n.Scratch, c.cfg.Fingerprint(n.id), inputHash,
			c.cfg.Resume, nodeStages)
		n.runner.SetObserver(c.cfg.Obs, n.Track)
		resumeAt = min(resumeAt, n.runner.ResumeAt())
		maxAt = max(maxAt, n.runner.ResumeAt())
	}
	if resumeAt != maxAt {
		// The nodes crashed mid-stage and diverged: a node that already
		// committed the stage has cleaned up its inputs (Sort deletes the
		// shuffled partitions), so it cannot re-run it in lockstep with the
		// stragglers. Fall back to a full re-run rather than trust a state
		// no node can recover from.
		resumeAt = 0
	}
	c.nodes[0].runner.SetProgress(c.cfg.Progress)
	for _, n := range c.nodes {
		n.runner.LimitResume(resumeAt)
		if c.FaultHook != nil {
			id := n.id
			n.runner.SetFaultHook(func(stage core.PhaseName) error {
				return c.FaultHook(id, stage)
			})
		}
		if resumeAt == 0 {
			// Starting from scratch: stale files from an interrupted or
			// invalidated run must not leak into this one.
			if err := os.RemoveAll(n.Scratch); err != nil {
				return err
			}
			if err := os.MkdirAll(n.Scratch, 0o755); err != nil {
				return err
			}
		}
	}
	return nil
}

// Assemble runs the distributed pipeline over the read set, which plays
// the role of the shared distributed file system holding the input.
func (c *Cluster) Assemble(rs *dna.ReadSet) (*Result, error) {
	return c.AssembleContext(context.Background(), rs)
}

// AssembleContext is Assemble under a cancellation context: cancelling
// ctx aborts every node's phase work between device batches with
// ctx.Err(), draining all node goroutines.
func (c *Cluster) AssembleContext(ctx context.Context, reads *dna.ReadSet) (*Result, error) {
	res := &Result{}
	defer func() {
		var total costmodel.Counters
		for _, n := range c.nodes {
			total = total.Add(n.Meter.Snapshot())
		}
		res.Counters = total.Add(c.serial.Snapshot())
		res.Modeled = res.Counters.Breakdown(c.cfg.Profile())
	}()
	rs, removed, err := c.cfg.PrepareReads(reads)
	if err != nil {
		return res, err
	}
	res.NumReads, res.DuplicatesRemoved = rs.NumReads(), removed
	c.cfg.Obs.Log().Info("cluster run start", "nodes", len(c.nodes),
		"reads", rs.NumReads(), "gpu", c.cfg.GPU.Name)
	defer c.cfg.Obs.Tracer().Begin(obs.Track{}, "run", "cluster assemble").End()
	if err := c.openRunners(rs); err != nil {
		return res, err
	}

	// Map: the master's block list is assigned statically round-robin, so
	// each node's partition files are a deterministic function of (input,
	// config, node ID) — the property per-node resume checksums rely on.
	// (Section III-E.1 describes dynamic handout; with uniform blocks the
	// static schedule has the same balance and a reproducible layout.) Map
	// leaves no in-memory state: the shuffle discovers peer partitions from
	// the (validated) files themselves.
	blk := c.cfg.blockReads()
	numBlocks := (rs.NumReads() + blk - 1) / blk
	err = c.runStage(res, core.PhaseMap, func(n *node) (core.StageOutcome, error) {
		var blocks []core.ReadRange
		for b := n.id; b < numBlocks; b += len(c.nodes) {
			start := b * blk
			end := min(start+blk, rs.NumReads())
			// The block is read from the shared distributed file system
			// (~2 bytes per base in FASTQ form).
			var blockBases int64
			for r := start; r < end; r++ {
				blockBases += int64(rs.Len(uint32(r)))
			}
			n.Meter.AddDiskRead(2 * blockBases)
			blocks = append(blocks, core.ReadRange{Start: start, End: end})
		}
		counts, sums, err := n.MapBlocks(ctx, rs, blocks)
		return core.StageOutcome{Artifacts: sums.Artifacts(counts, core.RawPartition)}, err
	}, func(*node, core.StageRecord) error { return nil })
	if err != nil {
		return res, err
	}

	// Shuffle: every node aggregates its owned partitions from all peers
	// (Section III-E.2). Cross-node reads are charged to the network.
	err = c.runStage(res, PhaseShuffle, func(n *node) (core.StageOutcome, error) {
		if err := ctx.Err(); err != nil {
			return core.StageOutcome{}, err
		}
		sums, err := c.shuffleNode(rs.MaxLen(), n)
		return core.StageOutcome{Artifacts: sums.Artifacts(n.counts, shufName)}, err
	}, func(n *node, rec core.StageRecord) (err error) {
		n.counts, err = core.PartitionCounts(rec, "shuf_"+kvio.Suffix.String()+"_")
		return err
	})
	if err != nil {
		return res, err
	}

	// Sort: each node externally sorts its owned partitions, deleting the
	// shuffled inputs only after the stage commits.
	err = c.runStage(res, core.PhaseSort, func(n *node) (core.StageOutcome, error) {
		var err error
		var sums core.PartitionSums
		n.passes, sums, err = n.SortPartitions(ctx, n.counts, shufName, sortedName)
		return core.StageOutcome{
			Artifacts: sums.Artifacts(n.counts, sortedName),
			Meta:      map[string]int64{core.MetaSortDiskPasses: int64(n.passes)},
			Cleanup:   func() error { return n.RemovePartitions(n.counts, shufName) },
		}, err
	}, func(n *node, rec core.StageRecord) error {
		n.passes = int(rec.Meta[core.MetaSortDiskPasses])
		return nil
	})
	if err != nil {
		return res, err
	}
	res.CachedStages = c.nodes[0].runner.CachedStages()
	lengths := map[int]bool{}
	for _, n := range c.nodes {
		res.SortDiskPasses = max(res.SortDiskPasses, n.passes)
		for l, pairs := range n.counts {
			lengths[l] = true
			res.PairsGenerated += 2 * pairs // as many suffix as prefix tuples
		}
	}
	res.Partitions = len(lengths)

	// Reduce: overlap finding in parallel, then graph building serialized
	// on the master in descending length order (Section III-E.3). The
	// engine holds the master's graph until Compress has walked it; it is
	// released on every way out.
	eng := c.nodes[0].NewGraphEngine(rs)
	defer eng.Release()
	var shipped int64
	err = c.tracked(core.PhaseReduce, func() (err error) {
		shipped, err = c.reducePhase(ctx, rs, eng, res)
		return err
	})
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Compress: the master walks its graph and generates contigs.
	err = c.tracked(core.PhaseCompress, func() error {
		return c.runPhase(core.PhaseCompress, res, func(n *node) error {
			if n.id != 0 {
				return nil
			}
			return c.compressOnMaster(rs, eng, shipped, res)
		})
	})
	if err != nil || c.cfg.KeepIntermediate {
		return res, err
	}
	// As a single node drops its partitions, the nodes drop their
	// directories: partition files, and manifests that would name them.
	for _, n := range c.nodes {
		if err := os.RemoveAll(n.Scratch); err != nil {
			return res, err
		}
	}
	return res, nil
}

// shufName / sortedName name a node's post-shuffle and post-sort partition
// files (relative to the node dir).
func shufName(k kvio.Kind, l int) string { return "shuf_" + core.RawPartition(k, l) }

func sortedName(k kvio.Kind, l int) string { return "sorted_" + core.RawPartition(k, l) }

// owner is the node that owns length partition l (Section III-E.2): the
// partitions go round the nodes from l_min.
func (c *Cluster) owner(l int) int { return (l - c.cfg.MinOverlap) % len(c.nodes) }

// edgeBytes is what one edge or candidate costs on the wire: a 4-byte
// vertex plus its overlap length (Section III-C's sizing).
const edgeBytes = 6

// shuffleNode pulls every length partition n owns below maxLen from all
// peers into n's local storage and returns the shuffled files' sums. Each
// peer meters the read of the file it serves (the paper's active-message
// handler reads the requested partition and responds with a chunk); what
// crosses between nodes is charged to n's network.
func (c *Cluster) shuffleNode(maxLen int, n *node) (core.PartitionSums, error) {
	n.counts = map[int]int64{}
	sums := core.PartitionSums{{}, {}}
	// A rename moves no byte: the file keeps the sum Map's writer folded,
	// which n's Map record holds whether Map ran in this process or was
	// replayed from the manifest.
	mapRec, _ := n.runner.Record(core.PhaseMap)
	mapped := make(map[string]kvio.Sum, len(mapRec.Artifacts))
	for _, a := range mapRec.Artifacts {
		mapped[a.Path] = a.Sum()
	}
	buf := make([]kv.Pair, 4096)
	// pull copies peer's (kind, l) partition file — which may be absent —
	// into w and returns the pairs moved.
	pull := func(w *kvio.Writer, peer *node, kind kvio.Kind, l int) (int64, error) {
		r, err := kvio.NewReader(kvio.PartitionPath(peer.Scratch, kind, l), peer.Meter)
		if os.IsNotExist(err) {
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		defer r.Close()
		var moved int64
		for {
			m, rerr := r.ReadBatch(buf)
			if err := w.WriteBatch(buf[:m]); err != nil {
				return moved, err
			}
			moved += int64(m)
			if rerr == io.EOF {
				return moved, nil
			}
			if rerr != nil {
				return moved, rerr
			}
		}
	}
	for l := c.cfg.MinOverlap; l < maxLen; l++ {
		if c.owner(l) != n.id {
			continue
		}
		for _, kind := range []kvio.Kind{kvio.Suffix, kvio.Prefix} {
			dst := filepath.Join(n.Scratch, shufName(kind, l))
			var total int64
			if len(c.nodes) == 1 {
				// Single node: every partition is already local and whole, so
				// the shuffle degenerates to a rename — matching the paper,
				// where the all-to-all transfer only appears when scaling out
				// from one node.
				src := kvio.PartitionPath(n.Scratch, kind, l)
				var err error
				if total, err = kvio.CountFile(src); err != nil {
					return sums, err
				}
				if total == 0 {
					continue
				}
				if err := os.Rename(src, dst); err != nil {
					return sums, err
				}
				sums[kind][l] = mapped[core.RawPartition(kind, l)]
			} else {
				w, err := kvio.NewWriter(dst, n.Meter)
				if err != nil {
					return sums, err
				}
				for _, peer := range c.nodes {
					moved, err := pull(w, peer, kind, l)
					if err != nil {
						w.Close()
						return sums, err
					}
					if peer != n {
						n.Meter.AddNet(moved * kv.PairBytes)
					}
					total += moved
				}
				if err := w.Close(); err != nil {
					return sums, err
				}
				sums[kind][l] = w.Sum()
			}
			if kind == kvio.Suffix && total > 0 {
				n.counts[l] = total
			}
		}
	}
	return sums, nil
}

// reducePhase runs overlap finding on all nodes in parallel, then feeds
// every length's candidates to the master's engine in descending length
// order, and the master seals (builds and reduces) its store on its own
// device. It returns the greedy edges accepted from lists a node other
// than the master found, which Compress charges for shipping.
func (c *Cluster) reducePhase(ctx context.Context, rs dna.ReadSource, eng core.GraphEngine,
	res *Result) (shipped int64, err error) {
	candidates := make(map[int][]core.Candidate)
	var candMu sync.Mutex

	// Parallel overlap finding (the t_o component).
	err = c.runPhase(core.PhaseReduce, res, func(n *node) error {
		return n.FindOverlaps(ctx, rs, n.counts, sortedName, func(o core.Overlaps) {
			candMu.Lock()
			candidates[o.Length] = o.Edges
			res.CandidateEdges += o.Candidates
			res.FalsePositives += o.FalsePositives
			candMu.Unlock()
		})
	})
	if err != nil {
		return 0, err
	}

	// Serialized graph building (the t_g component). The modeled cost is
	// charged to the dedicated serial meter, plus whatever sealing the
	// engine puts on the master's own meter (its spill, sort and device
	// reduction, overlap savings netted out). Both, and the wall time of
	// feeding and sealing, are added to the reduce phase.
	prof := c.cfg.Profile()
	serialBefore := c.serial.Snapshot()
	serialSpan := c.cfg.Obs.Tracer().Begin(obs.Track{}, "stage", "ReduceSerial").
		Metered(c.serial, prof)
	master := c.nodes[0]
	greedy := c.cfg.GreedyGraph()
	sealed, serialErr := master.Measure("ReduceSerial", func() error {
		// The greedy rule needs the out-degree bit-vector wherever a list is
		// applied: it hops as a token between the owners of consecutive
		// non-empty lists, and the edges accepted away from the master travel
		// to it for Compress. The other engines take the candidate lists
		// themselves to the master.
		token := bitvec.New(2 * rs.NumReads()).Bytes()
		prevOwner := -1
		for l := rs.MaxLen() - 1; l >= c.cfg.MinOverlap; l-- {
			list, owner := candidates[l], c.owner(l)
			delete(candidates, l)
			var nnz int64
			switch {
			case !greedy:
				if owner != master.id {
					c.serial.AddNet(int64(len(list)) * edgeBytes)
				}
			case len(list) == 0:
				continue
			default:
				if prevOwner != -1 && prevOwner != owner {
					c.serial.AddNet(token)
				}
				prevOwner, nnz = owner, eng.Stats().NNZ
			}
			for _, cd := range list {
				c.serial.AddHostMem(eng.AddHostBytes())
				eng.Add(cd.U, cd.V, uint16(l))
			}
			if greedy && owner != master.id {
				shipped += eng.Stats().NNZ - nnz
			}
		}
		st, err := core.SealEngine(ctx, eng, c.cfg.Obs.Metrics())
		res.ReducedEdges = st.Removed
		res.AcceptedEdges = st.NNZ - st.Removed
		return err
	})
	serialSpan.End()
	serialTime := c.serial.Snapshot().Sub(serialBefore).Time(prof) + sealed.Modeled
	// Fold the serialized component into the recorded reduce phase.
	last := &res.Phases[len(res.Phases)-1]
	res.ReduceOverlapModeled = last.Modeled
	res.ReduceSerialModeled = serialTime
	last.Modeled += serialTime
	last.Wall += sealed.Wall
	last.GraphHostPeak = max(last.GraphHostPeak, sealed.GraphHostPeak)
	res.TotalModeled += serialTime
	res.TotalWall += sealed.Wall
	c.cfg.Obs.Log().Debug("serialized reduce done", "modeled", serialTime, "err", serialErr)
	return shipped, serialErr
}

// compressOnMaster walks the master's graph into paths and generates
// contigs on node 0 — the same engine code as the single-node Compress, so
// the FASTA bytes match it exactly. The sealed engine is walked as it
// stands (the cluster checkpoints nothing between Reduce and Compress, so
// there is no edges.kv to reload); the shipped greedy edges other nodes
// accepted are charged as arriving now.
func (c *Cluster) compressOnMaster(rs dna.ReadSource, eng core.GraphEngine, shipped int64, res *Result) error {
	master := c.nodes[0]
	master.Meter.AddNet(shipped * edgeBytes)
	paths, err := eng.Paths()
	if err != nil {
		return err
	}
	res.ContigPath = filepath.Join(c.cfg.Workspace, "contigs.fasta")
	// No meter: the master's FASTA write has never been charged (see
	// core.WriteContigs).
	res.Contigs, _, err = core.WriteContigs(master.Device, nil, rs, paths, res.ContigPath)
	res.ContigStats = contig.Summarize(res.Contigs)
	return err
}
