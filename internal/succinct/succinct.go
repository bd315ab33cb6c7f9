// Package succinct implements the compressed overlap-graph store: the
// string graph's adjacency encoded as delta-compressed byte streams
// indexed by Elias–Fano offset sequences, built in a single streaming
// pass straight off the sorted edge runs the external sort emits.
//
// Dinh & Rajasekaran (arXiv:1009.3984) give a near-linear-space exact
// overlap-graph structure; Li et al. (arXiv:1207.3532) show the
// compressed-bitvector playbook for assembly graphs. This package
// follows that line with stdlib-only pieces: per-vertex edge intervals
// over rank/select-indexed bitvectors (bitvec.EliasFano for both the
// rowPtr analogue and the byte offsets into the adjacency stream), and
// per-row varint gap coding of target vertices with zig-zag deltas for
// overlap lengths.
//
// Space: a CSR matrix spends 8 bytes per row pointer plus 6 per entry;
// the raw edge list spends 10 per entry. Here a typical entry costs
// 2-3 bytes (one varint column gap + one varint length delta) and the
// two offset sequences cost ~2(2 + log2(nnz/n)) bits per vertex, so
// host peak drops by well over 2x — and, crucially, the builder never
// holds an uncompressed edge list or rowPtr array: its transient state
// is one pending edge plus compact per-row varint streams.
package succinct

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// Edge is one directed overlap edge: the Len-suffix of vertex U matches
// the Len-prefix of vertex V.
type Edge = graph.Edge

// MemSink is the subset of stats.MemTracker the builder meters its host
// bytes through; a nil sink disables metering.
type MemSink interface {
	Add(n int64)
	Release(n int64)
}

// Graph is the sealed compressed store. It is immutable after Finish
// and safe for concurrent readers.
type Graph struct {
	n   int
	nnz int64
	// adj holds the per-row edge encodings back to back: within a row,
	// the first edge is uvarint(col) + uvarint(len), each subsequent
	// edge uvarint(col gap) + zig-zag uvarint(len delta).
	adj     []byte
	edgeOff *bitvec.EliasFano // n+1 cumulative edge counts (rowPtr analogue)
	byteOff *bitvec.EliasFano // n+1 cumulative byte offsets into adj

	hostBytes int64 // tracked host charge still held (see HostBytes)
}

// NumVertices returns the graph dimension (2*numReads).
func (g *Graph) NumVertices() int { return g.n }

// NumReads returns the read count (vertices are read strands, 2 per
// read). It is part of the sgraph.Traversable contract.
func (g *Graph) NumReads() int { return g.n / 2 }

// NNZ returns the number of stored directed edges.
func (g *Graph) NNZ() int64 { return g.nnz }

// Bytes is the structural size of the compressed store: the adjacency
// stream plus both offset sequences. It is the device-transfer
// footprint analogue of spmat's Matrix.Bytes and a pure function of the
// structure.
func (g *Graph) Bytes() int64 {
	return int64(len(g.adj)) + g.edgeOff.Bytes() + g.byteOff.Bytes()
}

// HostBytes is the number of bytes currently charged to the builder's
// MemSink on the graph's behalf; the owner releases it when the graph
// is dropped.
func (g *Graph) HostBytes() int64 { return g.hostBytes }

// entrySpan returns row u's interval [lo, hi) in CSR entry order (the
// rowPtr analogue), read with one paired select.
func (g *Graph) entrySpan(u uint32) (lo, hi int64, err error) {
	if int64(u) >= int64(g.n) {
		return 0, 0, fmt.Errorf("succinct: vertex %d out of range for %d vertices", u, g.n)
	}
	eLo, eHi, err := g.edgeOff.Pair(int(u))
	if err != nil {
		return 0, 0, fmt.Errorf("succinct: edge offsets of vertex %d: %w", u, err)
	}
	return int64(eLo), int64(eHi), nil
}

// rowSpan resolves row u's first entry index, its degree and its encoded
// bytes: two paired selects, one per offset sequence (one select when the
// row is empty).
func (g *Graph) rowSpan(u uint32) (base, deg int64, enc []byte, err error) {
	lo, hi, err := g.entrySpan(u)
	if err != nil || hi == lo {
		return lo, 0, nil, err
	}
	bLo, bHi, err := g.byteOff.Pair(int(u))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("succinct: byte offsets of vertex %d: %w", u, err)
	}
	return lo, hi - lo, g.adj[bLo:bHi], nil
}

// Degree returns the out-degree of vertex u.
func (g *Graph) Degree(u uint32) (int64, error) {
	lo, hi, err := g.entrySpan(u)
	return hi - lo, err
}

// zigzag codes a signed delta as an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint is binary.Uvarint with the one-byte case (length deltas, small
// column gaps) decided inline.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// nextEntry decodes the entry at the head of enc. The row's first entry
// is absolute; later ones are a column gap and a zig-zag length delta
// against the previous entry (col, l). ok is false on a malformed varint.
func nextEntry(enc []byte, first bool, col uint32, l uint16) (rest []byte, c uint32, ln uint16, ok bool) {
	cv, n := uvarint(enc)
	if n <= 0 {
		return nil, 0, 0, false
	}
	enc = enc[n:]
	lv, n := uvarint(enc)
	if n <= 0 {
		return nil, 0, 0, false
	}
	if first {
		return enc[n:], uint32(cv), uint16(lv), true
	}
	return enc[n:], col + uint32(cv), uint16(int64(l) + unzigzag(lv)), true
}

// errCorruptRow reports a row whose bytes do not decode to its degree.
func errCorruptRow(u uint32) error {
	return fmt.Errorf("succinct: corrupt adjacency stream in row %d", u)
}

// Row decodes row u into scratch and returns its columns (strictly
// ascending, exactly as a CSR row would be), overlap lengths, and the
// index of its first entry in CSR entry order. It implements
// graph.RowStore; with a warmed scratch it allocates nothing.
func (g *Graph) Row(u uint32, scratch *graph.RowScratch) ([]uint32, []uint16, int64, error) {
	base, deg, enc, err := g.rowSpan(u)
	if err != nil {
		return nil, nil, 0, err
	}
	if int64(min(cap(scratch.Cols), cap(scratch.Vals))) < deg {
		n := max(2*deg, 32) // headroom: few rows ever grow the scratch again
		scratch.Cols, scratch.Vals = make([]uint32, n), make([]uint16, n)
	}
	cols, vals := scratch.Cols[:deg], scratch.Vals[:deg]
	var col uint32
	var l uint16
	for i := range cols {
		var ok bool
		if enc, col, l, ok = nextEntry(enc, i == 0, col, l); !ok {
			return nil, nil, 0, errCorruptRow(u)
		}
		cols[i], vals[i] = col, l
	}
	if len(enc) != 0 {
		return nil, nil, 0, errCorruptRow(u)
	}
	return cols, vals, base, nil
}

// TransferBytes implements graph.RowStore: a tile's out-of-core transfer
// is its two offset-sequence slices, its own compressed rows, and every
// neighbor row its products decode, priced at the amortized compressed
// bytes per entry.
func (g *Graph) TransferBytes(lo, hi, rowBatch int, _, flops int64) (int64, error) {
	bLo, err := g.byteOff.Get(lo)
	if err != nil {
		return 0, err
	}
	bHi, err := g.byteOff.Get(hi)
	if err != nil {
		return 0, err
	}
	bytesPerEdge := int64(1)
	if g.nnz > 0 {
		bytesPerEdge = max(int64(len(g.adj))/g.nnz, 1)
	}
	return 2*int64(rowBatch+1) + int64(bHi-bLo) + bytesPerEdge*flops, nil
}

// EachOut visits the out-edges of v in ascending target order, decoding
// the row in place (no buffer) and stopping early when fn returns false.
// It implements sgraph.Traversable over the full (unmasked) edge set;
// graph.NewLiveView(g, mask) is the masked, error-reporting walk. A decode
// error ends the iteration; it cannot occur on a Builder-sealed graph.
func (g *Graph) EachOut(v uint32, fn func(to uint32, l uint16) bool) {
	_, deg, enc, err := g.rowSpan(v)
	if err != nil {
		return
	}
	var col uint32
	var l uint16
	for i := int64(0); i < deg; i++ {
		var ok bool
		if enc, col, l, ok = nextEntry(enc, i == 0, col, l); !ok || !fn(col, l) {
			return
		}
	}
}

// Builder assembles a Graph from edges arriving in non-decreasing
// (U, V) order — the order the sorted edge runs stream in. It holds no
// uncompressed edge list: transient state is the pending edge (for
// keep-the-longest dedupe), the growing compressed adjacency stream,
// and compact per-row varint bookkeeping replayed into the Elias–Fano
// offsets at Finish.
type Builder struct {
	n   int
	mem MemSink

	adj []byte
	// rowTmp records (row gap, degree, byte length) varint triples for
	// each non-empty row, in row order — a few bytes per populated row.
	rowTmp []byte

	pending    Edge
	hasPending bool
	lastRowIdx uint32 // last closed row (valid when rowsClosed)
	rowsClosed bool

	curRow     uint32
	curDeg     int64
	rowStart   int
	rowOpen    bool
	prevCol    uint32
	prevLen    uint16
	nnz        int64
	charged    int64
	maxCharged int64
}

// NewBuilder creates a builder over numVertices vertices. mem, when
// non-nil, is charged with the builder's host bytes as they grow; the
// residual charge transfers to the finished Graph (see Graph.HostBytes).
func NewBuilder(numVertices int, mem MemSink) (*Builder, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("succinct: negative vertex count %d", numVertices)
	}
	return &Builder{n: numVertices, mem: mem}, nil
}

// account re-levels the MemSink charge against the builder's current
// buffer capacities.
func (b *Builder) account() {
	cur := int64(cap(b.adj)) + int64(cap(b.rowTmp)) + 64 // fixed fields
	if cur != b.charged {
		if b.mem != nil {
			b.mem.Add(cur - b.charged)
		}
		b.charged = cur
	}
	if b.charged > b.maxCharged {
		b.maxCharged = b.charged
	}
}

// Push offers the next edge. Records must arrive in non-decreasing
// (U, V) order; exact duplicates dedupe keeping the longest overlap.
// Out-of-range, self-loop, zero-length, or order-regressing records are
// errors — never panics — mirroring spmat.FromEdgeRuns, so a truncated
// or corrupted edge stream fails loudly.
func (b *Builder) Push(e Edge) error {
	if int64(e.U) >= int64(b.n) || int64(e.V) >= int64(b.n) {
		return fmt.Errorf("succinct: edge (%d->%d) out of range for %d vertices", e.U, e.V, b.n)
	}
	if e.U == e.V {
		return fmt.Errorf("succinct: self-loop edge at vertex %d", e.U)
	}
	if e.Len == 0 {
		return fmt.Errorf("succinct: edge (%d->%d) has zero overlap length", e.U, e.V)
	}
	if b.hasPending {
		p := b.pending
		if e.U < p.U || (e.U == p.U && e.V < p.V) {
			return fmt.Errorf("succinct: edge run not sorted: (%d,%d) after (%d,%d)",
				e.U, e.V, p.U, p.V)
		}
		if e.U == p.U && e.V == p.V {
			if e.Len > b.pending.Len {
				b.pending.Len = e.Len
			}
			return nil
		}
		b.encode(p)
	}
	b.pending = e
	b.hasPending = true
	return nil
}

// encode appends one deduped edge to the compressed streams.
func (b *Builder) encode(e Edge) {
	if !b.rowOpen || e.U != b.curRow {
		b.closeRow()
		b.curRow = e.U
		b.rowOpen = true
		b.rowStart = len(b.adj)
		b.adj = binary.AppendUvarint(b.adj, uint64(e.V))
		b.adj = binary.AppendUvarint(b.adj, uint64(e.Len))
	} else {
		b.adj = binary.AppendUvarint(b.adj, uint64(e.V-b.prevCol))
		b.adj = binary.AppendUvarint(b.adj, zigzag(int64(e.Len)-int64(b.prevLen)))
	}
	b.prevCol = e.V
	b.prevLen = e.Len
	b.curDeg++
	b.nnz++
	b.account()
}

// closeRow flushes the open row's bookkeeping triple into rowTmp.
func (b *Builder) closeRow() {
	if !b.rowOpen {
		return
	}
	gap := uint64(b.curRow)
	if b.rowsClosed {
		gap = uint64(b.curRow - b.lastRowIdx)
	}
	b.rowTmp = binary.AppendUvarint(b.rowTmp, gap)
	b.rowTmp = binary.AppendUvarint(b.rowTmp, uint64(b.curDeg))
	b.rowTmp = binary.AppendUvarint(b.rowTmp, uint64(len(b.adj)-b.rowStart))
	b.lastRowIdx = b.curRow
	b.rowsClosed = true
	b.rowOpen = false
	b.curDeg = 0
	b.account()
}

// MaxChargedBytes returns the high-water mark of the builder's MemSink
// charge — the single-pass construction pin: it stays far below the
// uncompressed edge list the builder never materializes.
func (b *Builder) MaxChargedBytes() int64 { return b.maxCharged }

// Abandon releases the builder's residual MemSink charge, for callers
// bailing out before Finish (or after a failed Finish). Idempotent.
func (b *Builder) Abandon() {
	if b.mem != nil && b.charged != 0 {
		b.mem.Release(b.charged)
	}
	b.charged = 0
}

// Finish seals the graph: the per-row bookkeeping replays into the two
// Elias–Fano offset sequences and the transient buffers are released
// from the MemSink, leaving only the compressed structure charged.
func (b *Builder) Finish() (*Graph, error) {
	if b.hasPending {
		b.encode(b.pending)
		b.hasPending = false
	}
	b.closeRow()

	edgeB, err := bitvec.NewEliasFanoBuilder(b.n+1, uint64(b.nnz))
	if err != nil {
		return nil, err
	}
	byteB, err := bitvec.NewEliasFanoBuilder(b.n+1, uint64(len(b.adj)))
	if err != nil {
		return nil, err
	}
	// Replay the non-empty-row triples, filling cumulative offsets for
	// every vertex.
	tmp := b.rowTmp
	nextRow := int64(-1)
	var nextDeg, nextBytes uint64
	var prevRow int64
	advance := func(first bool) error {
		if len(tmp) == 0 {
			nextRow = int64(b.n) // sentinel past the end
			return nil
		}
		gap, n := binary.Uvarint(tmp)
		if n <= 0 {
			return fmt.Errorf("succinct: corrupt row bookkeeping")
		}
		tmp = tmp[n:]
		if first {
			nextRow = int64(gap)
		} else {
			nextRow = prevRow + int64(gap)
		}
		prevRow = nextRow
		if nextDeg, n = binary.Uvarint(tmp); n <= 0 {
			return fmt.Errorf("succinct: corrupt row bookkeeping")
		}
		tmp = tmp[n:]
		if nextBytes, n = binary.Uvarint(tmp); n <= 0 {
			return fmt.Errorf("succinct: corrupt row bookkeeping")
		}
		tmp = tmp[n:]
		return nil
	}
	if err := advance(true); err != nil {
		return nil, err
	}
	var cumDeg, cumBytes uint64
	for i := 0; i <= b.n; i++ {
		if err := edgeB.Append(cumDeg); err != nil {
			return nil, err
		}
		if err := byteB.Append(cumBytes); err != nil {
			return nil, err
		}
		if int64(i) == nextRow {
			cumDeg += nextDeg
			cumBytes += nextBytes
			if err := advance(false); err != nil {
				return nil, err
			}
		}
	}
	edgeOff, err := edgeB.Build()
	if err != nil {
		return nil, err
	}
	byteOff, err := byteB.Build()
	if err != nil {
		return nil, err
	}

	g := &Graph{n: b.n, nnz: b.nnz, adj: b.adj, edgeOff: edgeOff, byteOff: byteOff}
	// Re-level the charge: bookkeeping is gone, offset sequences are in.
	b.rowTmp = nil
	b.account()
	if b.mem != nil {
		b.mem.Add(edgeOff.Bytes() + byteOff.Bytes())
	}
	b.charged += edgeOff.Bytes() + byteOff.Bytes()
	if b.charged > b.maxCharged {
		b.maxCharged = b.charged
	}
	g.hostBytes = b.charged
	return g, nil
}

// FromEdgeRuns builds a Graph from a pull iterator over edges in
// non-decreasing (U, V) order — the CSR order the pipeline persists
// edges.kv in and the order SortStream emits. It mirrors
// spmat.FromEdgeRuns' validation contract: duplicates dedupe keeping
// the longest overlap; unordered, out-of-range, zero-length, or
// self-loop records are errors, never panics.
func FromEdgeRuns(numVertices int, next func() (Edge, bool, error)) (*Graph, error) {
	return FromEdgeRunsMetered(numVertices, nil, next)
}

// FromEdgeRunsMetered is FromEdgeRuns with the builder's host bytes
// charged to mem.
func FromEdgeRunsMetered(numVertices int, mem MemSink, next func() (Edge, bool, error)) (*Graph, error) {
	b, err := NewBuilder(numVertices, mem)
	if err != nil {
		return nil, err
	}
	for {
		e, ok, err := next()
		if err != nil {
			b.Abandon()
			return nil, err
		}
		if !ok {
			break
		}
		if err := b.Push(e); err != nil {
			b.Abandon()
			return nil, err
		}
	}
	g, err := b.Finish()
	if err != nil {
		b.Abandon()
		return nil, err
	}
	return g, nil
}

// ReduceConfig parameterizes the transitive-reduction pass; it is the
// shared two-hop reducer's config, exactly as for spmat.
type ReduceConfig = graph.TwoHopConfig

// TransitiveReduce runs the shared masked two-hop reducer
// (graph.TransitiveReduceTwoHop, which documents the predicate, tiling
// and metering) over the compressed store, decoding rows into pooled
// scratch. The predicate and the compute charges are store-independent,
// so the surviving edge set — and hence the downstream unitigs and
// contigs — is byte-identical to the spmat backend's on the same input;
// the H2D traffic is the compressed bytes, which is where the
// representation's bandwidth win shows up. A row that fails to decode
// fails the pass. The result's Mask is indexed in entry order;
// graph.NewLiveView(g, Mask) walks the survivors.
func (g *Graph) TransitiveReduce(ctx context.Context, cfg ReduceConfig) (*graph.TwoHopResult, error) {
	return graph.TransitiveReduceTwoHop(ctx, g, "succinct", cfg)
}
