package core

import (
	"fmt"
	"io"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/kv"
	"repro/internal/kvio"
)

// The Reduce stage always persists its accepted edge list to this file
// (workspace-relative), and the Compress stage always rebuilds the overlap
// graph from it. Routing the cold path and the resumed path through the
// same artifact is what makes resumed output byte-identical by
// construction rather than by careful bookkeeping: Compress cannot tell
// whether Reduce ran five milliseconds or five days ago. Edges are
// serialized through the kvio record machinery (and so inherit its
// metering and truncation hardening) in graph.Edge.Pair's encoding.
const edgeFileName = "edges.kv"

// writeEdgeFile streams an engine's live edges to path in the order
// produced. The order is preserved on reload, so any insertion-order-
// sensitive graph construction survives a round trip. The file's sum is
// returned. An iterator that stopped on an error (a store row that failed
// to decode) left the file short, not complete: its Err is returned.
func writeEdgeFile(path string, meter *costmodel.Meter, live LiveEdges) (kvio.Sum, error) {
	w, err := kvio.NewWriter(path, meter)
	if err != nil {
		return kvio.Sum{}, err
	}
	for e, ok := live.Next(); ok; e, ok = live.Next() {
		if err := w.Write(e.Pair()); err != nil {
			w.Close()
			return kvio.Sum{}, err
		}
	}
	if err := w.Close(); err != nil {
		return kvio.Sum{}, err
	}
	return w.Sum(), live.Err()
}

// edgeFileIterator streams edges.kv pull-style, the shape
// GraphEngine.Load consumes.
type edgeFileIterator struct {
	r      *kvio.Reader
	buf    []kv.Pair
	pos, n int
	eof    bool
}

func newEdgeFileIterator(path string, meter *costmodel.Meter) (*edgeFileIterator, error) {
	r, err := kvio.NewReader(path, meter)
	if err != nil {
		return nil, err
	}
	return &edgeFileIterator{r: r, buf: make([]kv.Pair, 4096)}, nil
}

// Next returns the next edge in file order; ok is false at end of file.
func (it *edgeFileIterator) Next() (graph.Edge, bool, error) {
	for it.pos >= it.n {
		if it.eof {
			return graph.Edge{}, false, nil
		}
		n, err := it.r.ReadBatch(it.buf)
		it.pos, it.n = 0, n
		if err == io.EOF {
			it.eof = true
		} else if err != nil {
			return graph.Edge{}, false, fmt.Errorf("core: reading edge file: %w", err)
		}
	}
	e := graph.EdgeOfPair(it.buf[it.pos])
	it.pos++
	return e, true, nil
}

func (it *edgeFileIterator) Close() error { return it.r.Close() }
