package core

import (
	"context"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/stats"
	"repro/internal/succinct"
)

// Node is one machine of the assembler (DESIGN.md, "Node runtime"): a
// device with its meter, a host-memory pool, an overlap ledger, a scratch
// directory and a lane group in the trace, plus the bodies every machine
// runs on them — phase accounting (Measure), the Map stage (MapBlocks),
// the external sorts (SortPartitions) and overlap finding (FindOverlaps).
// The single-node Pipeline drives one Node; the cluster wraps one per
// simulated machine and adds only what Section III-E adds (block
// assignment, shuffle, token forwarding). Graph engines run on a Node too.
type Node struct {
	Device  *gpu.Device
	Meter   *costmodel.Meter
	HostMem *stats.MemTracker // the host pool sort blocks and buffered tuples count against
	// GraphMem tracks the bytes of the graph representation itself
	// (builders and sealed stores), the backend-comparable subset of
	// HostMem that Measure reports as PhaseStats.GraphHostPeak.
	GraphMem *stats.MemTracker
	// Graph is the engines' memory sink: it charges HostMem and GraphMem.
	Graph succinct.MemSink
	// Ledger accumulates the modeled overlap savings of the sort, reduce
	// and two-hop passes, whose prefetching I/O streams overlap their
	// compute (DESIGN.md, "Streams and overlap accounting").
	Ledger *costmodel.OverlapLedger
	// Scratch holds the node's partition files and every sort_* spill
	// directory, so a crashed run's leftovers are swept in one place.
	Scratch string
	// Track is the node's stage-driver lane; worker lanes hang off it.
	Track obs.Track
	// Profile prices the node's counters: Config.Profile().
	Profile costmodel.Profile

	cfg Config
}

// NewNode builds the machine around dev, metering on dev's meter. cfg
// supplies the block sizes, l_min, the worker count, the verify switch and
// the observer; the node's trace process is track.Pid.
func NewNode(cfg Config, dev *gpu.Device, track obs.Track, scratch string) *Node {
	n := &Node{Device: dev, Meter: dev.Meter(), HostMem: new(stats.MemTracker),
		GraphMem: new(stats.MemTracker), Scratch: scratch, Track: track,
		Profile: cfg.Profile(), cfg: cfg}
	n.Graph = graphSink{n}
	n.Ledger = costmodel.NewOverlapLedger(n.Profile)
	if cfg.Obs != nil {
		dev.SetHooks(obs.DeviceHooks(cfg.Obs, track.Pid))
		tr := cfg.Obs.Tracer()
		tr.NameThread(track, "stages")
		for w := 0; w < cfg.workers(); w++ {
			tr.NameThread(track.Worker(w), fmt.Sprintf("worker %d", w))
		}
	}
	return n
}

// graphSink charges graph-representation memory to both the node's host
// pool and its graph tracker.
type graphSink struct{ n *Node }

func (s graphSink) Add(b int64)     { s.n.HostMem.Add(b); s.n.GraphMem.Add(b) }
func (s graphSink) Release(b int64) { s.n.HostMem.Release(b); s.n.GraphMem.Release(b) }

// Measure runs fn as one phase on this node and reports what it cost: the
// meter delta priced under the node's profile, minus the overlap the
// phase's streamed units hid (they commit their timelines before the phase
// returns, so the ledger delta is attributable to this phase alone), with
// the host, graph and device peaks reset at entry. The stage span on the
// node's driver lane carries the same counter delta; phases run serially
// on a node, so those deltas sum exactly to its final meter snapshot.
func (n *Node) Measure(name PhaseName, fn func() error) (stats.PhaseStats, error) {
	n.HostMem.ResetPeak()
	n.GraphMem.ResetPeak()
	n.Device.MemTracker().ResetPeak()
	span := n.cfg.Obs.Tracer().Begin(n.Track, "stage", string(name)).Metered(n.Meter, n.Profile)
	if name == PhaseReduce || name == PhaseCompress {
		span.Arg("graph.backend", n.cfg.backend())
	}
	before := n.Meter.Snapshot()
	savedBefore := n.Ledger.SavedSeconds()
	timer := stats.StartTimer()
	err := fn()
	span.End()
	delta := n.Meter.Snapshot().Sub(before)
	saved := time.Duration((n.Ledger.SavedSeconds() - savedBefore) * float64(time.Second))
	return stats.PhaseStats{
		Name:          string(name),
		Wall:          timer.Elapsed(),
		Modeled:       max(delta.Time(n.Profile)-saved, 0),
		PeakHost:      n.HostMem.Peak(),
		PeakDevice:    n.Device.MemTracker().Peak(),
		GraphHostPeak: n.GraphMem.Peak(),
		DiskRead:      delta.DiskReadBytes,
		DiskWrite:     delta.DiskWriteBytes,
		NetBytes:      delta.NetBytes,
		PCIeBytes:     delta.PCIeBytes,
		DeviceOps:     delta.DeviceOps,
		OverlapSaved:  saved,
	}, err
}

// ReadRange is the half-open range [Start, End) of read indices.
type ReadRange struct{ Start, End int }

// MapBlocks fingerprints the given blocks of rs, in order, into the raw
// length partitions under Scratch (RawPartition names them) and returns the
// tuple count per length and the files' sums.
func (n *Node) MapBlocks(ctx context.Context, rs dna.ReadSource, blocks []ReadRange) (map[int]int64, PartitionSums, error) {
	sfxW := kvio.NewPartitionWriters(n.Scratch, kvio.Suffix, n.Meter)
	pfxW := kvio.NewPartitionWriters(n.Scratch, kvio.Prefix, n.Meter)
	mapper := NewMapper(n.Device, n.HostMem, n.cfg.MinOverlap, n.cfg.MapBatchReads, rs.MaxLen())
	mapper.Workers = n.cfg.workers()
	mapper.Obs = n.cfg.Obs
	mapper.Track = n.Track
	mapper.Profile = n.Profile
	for _, b := range blocks {
		if err := mapper.MapRange(ctx, rs, b.Start, b.End, sfxW, pfxW); err != nil {
			return nil, PartitionSums{}, err
		}
	}
	if err := sfxW.Close(); err != nil {
		return nil, PartitionSums{}, err
	}
	if err := pfxW.Close(); err != nil {
		return nil, PartitionSums{}, err
	}
	return sfxW.Counts(), PartitionSums{sfxW.Sums(), pfxW.Sums()}, nil
}

// A PartitionNamer names the file holding one side of one length
// partition, relative to the directory the caller keeps it in.
type PartitionNamer func(kind kvio.Kind, length int) string

// RawPartition names the files MapBlocks leaves in Scratch.
func RawPartition(kind kvio.Kind, length int) string {
	return filepath.Base(kvio.PartitionPath("", kind, length))
}

// PartitionFiles lists both sides of every partition in counts, longest
// first — the schedule the sort and reduce bodies follow.
func PartitionFiles(counts map[int]int64, name PartitionNamer) []string {
	files := make([]string, 0, 2*len(counts))
	for _, l := range sortedLengthsDesc(counts) {
		files = append(files, name(kvio.Suffix, l), name(kvio.Prefix, l))
	}
	return files
}

// PartitionSums holds the sum each partition file's writer folded, by
// side (kvio.Kind) and length: what a stage that wrote partitions commits.
type PartitionSums [2]map[int]kvio.Sum

// Artifacts lists both sides of every partition in counts as manifest
// artifacts, in PartitionFiles order, named by name and carrying the
// writers' sums.
func (s PartitionSums) Artifacts(counts map[int]int64, name PartitionNamer) []Artifact {
	arts := make([]Artifact, 0, 2*len(counts))
	for _, l := range sortedLengthsDesc(counts) {
		for _, k := range []kvio.Kind{kvio.Suffix, kvio.Prefix} {
			arts = append(arts, NewArtifact(name(k, l), s[k][l]))
		}
	}
	return arts
}

// PartitionCounts rebuilds per-length tuple counts from a committed stage
// record whose suffix-side artifacts are named <prefix><length>.kv: each
// holds exactly its partition's pairs, so the counts fall out of the
// recorded sizes. Disk listings are never consulted — the record is
// authoritative even after a later stage consumed the files.
func PartitionCounts(rec StageRecord, prefix string) (map[int]int64, error) {
	counts := make(map[int]int64)
	for _, a := range rec.Artifacts {
		base := path.Base(a.Path)
		if !strings.HasPrefix(base, prefix) || !strings.HasSuffix(base, ".kv") {
			continue
		}
		l, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, prefix), ".kv"))
		if err != nil {
			return nil, fmt.Errorf("core: manifest %s artifact %q: %w", rec.Name, a.Path, err)
		}
		counts[l] = a.Bytes / kv.PairBytes
	}
	return counts, nil
}

// RemovePartitions deletes both sides of every partition in counts from
// Scratch: how a stage drops the inputs it consumed once it has committed.
func (n *Node) RemovePartitions(counts map[int]int64, name PartitionNamer) error {
	for _, f := range PartitionFiles(counts, name) {
		if err := os.Remove(filepath.Join(n.Scratch, f)); err != nil {
			return err
		}
	}
	return nil
}

// SortPartitions externally sorts both sides of every partition in counts
// from Scratch/in(...) to Scratch/out(...), on up to Workers goroutines,
// and returns the most disk passes any sort took and the sorted files'
// sums. Of several failures the one earliest in the schedule is reported.
func (n *Node) SortPartitions(ctx context.Context, counts map[int]int64, in, out PartitionNamer) (int, PartitionSums, error) {
	type task struct {
		kind   kvio.Kind
		length int
	}
	var tasks []task
	for _, l := range sortedLengthsDesc(counts) {
		tasks = append(tasks, task{kvio.Suffix, l}, task{kvio.Prefix, l})
	}
	sortOne := func(worker, i int) (extsort.Stats, error) {
		if err := ctx.Err(); err != nil {
			return extsort.Stats{}, err
		}
		t := tasks[i]
		defer n.cfg.Obs.Tracer().Begin(n.Track.Worker(worker), "partition",
			fmt.Sprintf("sort %s len=%d", t.kind, t.length)).
			Metered(n.Meter, n.Profile).End()
		// Every concurrent sort gets a private scratch directory: run and
		// merge files are named per sort, and partitions must not see each
		// other's spills.
		tmpDir := filepath.Join(n.Scratch, fmt.Sprintf("sort_%s_%04d", t.kind, t.length))
		if err := os.MkdirAll(tmpDir, 0o755); err != nil {
			return extsort.Stats{}, err
		}
		defer os.RemoveAll(tmpDir)
		st, err := extsort.SortFile(ctx, extsort.Config{
			Device:           n.Device,
			Meter:            n.Meter,
			HostMem:          n.HostMem,
			HostBlockPairs:   n.cfg.HostBlockPairs,
			DeviceBlockPairs: n.cfg.DeviceBlockPairs,
			TempDir:          tmpDir,
			Obs:              n.cfg.Obs,
			Overlap:          n.Ledger,
		}, filepath.Join(n.Scratch, in(t.kind, t.length)), filepath.Join(n.Scratch, out(t.kind, t.length)))
		if err != nil {
			return st, fmt.Errorf("core: sorting partition %d (%s): %w", t.length, t.kind, err)
		}
		return st, nil
	}
	passes, sums, consumed := 0, PartitionSums{{}, {}}, 0
	err := runOrdered(n.cfg.workers(), len(tasks), sortOne, func(st extsort.Stats) error {
		t := tasks[consumed]
		consumed++
		passes = max(passes, st.DiskPasses)
		sums[t.kind][t.length] = st.Output
		return nil
	}, func(extsort.Stats) {})
	if err != nil {
		return 0, PartitionSums{}, err
	}
	return passes, sums, nil
}

// Candidate is one candidate overlap: the Length-suffix of vertex U equals
// the Length-prefix of vertex V (the length is its partition's).
type Candidate struct{ U, V uint32 }

// candidateBytes is the in-memory footprint of one buffered candidate.
const candidateBytes = 8

// Overlaps is one partition's overlap-finding output.
type Overlaps struct {
	Length int
	// Edges are the candidates that passed verification, in fingerprint
	// order.
	Edges []Candidate
	// Candidates counts every fingerprint match, FalsePositives the ones
	// Config.VerifyOverlaps rejected.
	Candidates, FalsePositives int64
}

// FindOverlaps streams every sorted partition in counts through the
// overlap reducer and hands each partition's surviving candidates to
// apply. Partitions are reduced by up to Workers goroutines concurrently —
// each holding its own device window allocation — but apply always runs on
// the calling goroutine in strict descending-length order (runOrdered), so
// whatever it builds is identical to the serial run's. With
// Config.VerifyOverlaps the workers check every candidate against the
// sequences of rs. Candidates buffered between a worker and apply count
// against HostMem. Cancellation surfaces as an error from the reducer's ctx
// checks.
func (n *Node) FindOverlaps(ctx context.Context, rs dna.ReadSource, counts map[int]int64,
	sorted PartitionNamer, apply func(Overlaps)) error {
	cfg := overlap.Config{
		Device:      n.Device,
		Meter:       n.Meter,
		HostMem:     n.HostMem,
		WindowPairs: max(n.cfg.HostBlockPairs/2, 1),
		Obs:         n.cfg.Obs,
		Overlap:     n.Ledger,
	}
	lengths := sortedLengthsDesc(counts)
	workers := min(n.cfg.workers(), len(lengths))
	// Serially no candidate waits for apply, so none is charged.
	held := func(r Overlaps) int64 {
		if workers <= 1 {
			return 0
		}
		return int64(len(r.Edges)) * candidateBytes
	}
	reduceOne := func(worker, i int) (Overlaps, error) {
		l := lengths[i]
		defer n.cfg.Obs.Tracer().Begin(n.Track.Worker(worker), "partition",
			fmt.Sprintf("reduce len=%d", l)).
			Metered(n.Meter, n.Profile).End()
		out := Overlaps{Length: l}
		err := overlap.ReducePaths(ctx, cfg,
			filepath.Join(n.Scratch, sorted(kvio.Suffix, l)), filepath.Join(n.Scratch, sorted(kvio.Prefix, l)),
			func(u, v uint32) error {
				out.Candidates++
				if n.cfg.VerifyOverlaps && !verifyOverlap(rs, u, v, l) {
					out.FalsePositives++
					return nil
				}
				out.Edges = append(out.Edges, Candidate{u, v})
				return nil
			})
		if err != nil {
			return out, fmt.Errorf("core: reducing partition %d: %w", l, err)
		}
		n.HostMem.Add(held(out))
		return out, nil
	}
	release := func(r Overlaps) { n.HostMem.Release(held(r)) }
	return runOrdered(workers, len(lengths), reduceOne, func(r Overlaps) error {
		apply(r)
		release(r)
		return nil
	}, release)
}

// verifyOverlap checks that the l-suffix of vertex u equals the l-prefix
// of vertex v by comparing the underlying sequences.
func verifyOverlap(rs dna.ReadSource, u, v uint32, l int) bool {
	su := rs.VertexSeq(u)
	sv := rs.VertexSeq(v)
	if l > len(su) || l > len(sv) {
		return false
	}
	return su[len(su)-l:].Equal(sv[:l])
}

// sortedLengthsDesc returns the partition lengths in descending order,
// the deterministic schedule shared by the sort and reduce bodies.
func sortedLengthsDesc(counts map[int]int64) []int {
	lengths := make([]int, 0, len(counts))
	for l := range counts {
		lengths = append(lengths, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	return lengths
}

// runOrdered produces n values on up to workers goroutines and consumes
// them on the calling goroutine in index order, so whatever consume builds
// is identical to the serial run's. Values are claimed in index order and,
// once a produce or consume fails, no further index is claimed; of several
// failures the lowest-indexed one is returned. At most lookahead(workers)
// indices are claimed but not yet consumed, so the values held at once
// depend on workers, not on scheduling. Every produced value that is
// never consumed — it follows a failure — is handed to release, and no
// goroutine outlives the call. A failed produce owns its partial value.
// With one worker (or one value) each value is produced and consumed on the
// caller in turn.
func runOrdered[T any](workers, n int, produce func(worker, i int) (T, error),
	consume func(T) error, release func(T)) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := produce(0, i)
			if err != nil {
				return err
			}
			if err := consume(v); err != nil {
				return err
			}
		}
		return nil
	}
	type slot struct {
		v    T
		err  error
		done chan struct{}
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	// A producer takes a window slot before it claims an index and the
	// consumer frees one per value consumed. Stopping closes quit, which
	// wakes every producer waiting for a slot the consumer will not free.
	window := make(chan struct{}, lookahead(workers))
	quit := make(chan struct{})
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case window <- struct{}{}:
				case <-quit:
					return
				}
				if stop.Load() {
					return
				}
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				s := &slots[i]
				if s.v, s.err = produce(w, int(i)); s.err != nil {
					stop.Store(true)
				}
				close(s.done)
			}
		}(w)
	}
	// Index i is always claimed before the consumer waits on it: claims are
	// in index order, and producers stop only after a failure at some index
	// k, which was claimed after every index below it; the consumer never
	// waits past k. Nor can the window hold i back: a slot is held by an
	// index in [i, n), by a producer about to claim one, or by one that
	// found every index claimed.
	var err error
	consumed := 0
	for ; consumed < n && err == nil; consumed++ {
		s := &slots[consumed]
		<-s.done
		if err = s.err; err == nil {
			err = consume(s.v)
		}
		var zero T
		s.v = zero // consumed values are the caller's to drop
		<-window
	}
	stop.Store(true)
	close(quit)
	wg.Wait()
	for i := consumed; i < n; i++ {
		select {
		case <-slots[i].done:
			if slots[i].err == nil {
				release(slots[i].v)
			}
		default: // never claimed
		}
	}
	return err
}

// lookahead is how many indices runOrdered's workers may claim ahead of
// its consumer: enough that each worker has a value queued behind the one
// it is producing.
func lookahead(workers int) int { return 2 * workers }
