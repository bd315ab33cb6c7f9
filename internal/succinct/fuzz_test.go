package succinct

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// decodeEdgeRecords parses data as a stream of 10-byte little-endian
// records (u uint32, v uint32, len uint16) — the fuzzer's wire format. A
// trailing partial record is ignored, mirroring how a truncated edge
// file surfaces whole records only.
func decodeEdgeRecords(data []byte) []Edge {
	var edges []Edge
	for len(data) >= 10 {
		edges = append(edges, Edge{
			U:   binary.LittleEndian.Uint32(data[0:4]),
			V:   binary.LittleEndian.Uint32(data[4:8]),
			Len: binary.LittleEndian.Uint16(data[8:10]),
		})
		data = data[10:]
	}
	return edges
}

func encodeEdgeRecords(edges []Edge) []byte {
	var buf bytes.Buffer
	for _, e := range edges {
		var rec [10]byte
		binary.LittleEndian.PutUint32(rec[0:4], e.U)
		binary.LittleEndian.PutUint32(rec[4:8], e.V)
		binary.LittleEndian.PutUint16(rec[8:10], e.Len)
		buf.Write(rec[:])
	}
	return buf.Bytes()
}

// FuzzSuccinctFromEdgeRuns feeds arbitrary — well-formed, malformed,
// duplicated, unsorted, truncated — edge records into the compressed
// builder. The contract under fuzz: never panic, fail loudly (error) on
// any order/range/length violation, dedupe deterministically, and on
// success decode back the exact edge set with a consistent Elias–Fano
// rowPtr.
func FuzzSuccinctFromEdgeRuns(f *testing.F) {
	// Valid sorted run with a complement pair.
	f.Add(uint16(8), encodeEdgeRecords([]Edge{{U: 0, V: 2, Len: 50}, {U: 3, V: 1, Len: 50}, {U: 4, V: 6, Len: 30}}))
	// Duplicates that must dedupe keeping the max length.
	f.Add(uint16(8), encodeEdgeRecords([]Edge{{U: 0, V: 2, Len: 30}, {U: 0, V: 2, Len: 40}, {U: 0, V: 2, Len: 20}}))
	// Unsorted: must error.
	f.Add(uint16(8), encodeEdgeRecords([]Edge{{U: 4, V: 2, Len: 10}, {U: 0, V: 2, Len: 10}}))
	// Out of range, zero length, self loop: must error.
	f.Add(uint16(4), encodeEdgeRecords([]Edge{{U: 9, V: 2, Len: 10}}))
	f.Add(uint16(4), encodeEdgeRecords([]Edge{{U: 0, V: 2, Len: 0}}))
	f.Add(uint16(4), encodeEdgeRecords([]Edge{{U: 2, V: 2, Len: 7}}))
	// Truncated record tail.
	f.Add(uint16(8), append(encodeEdgeRecords([]Edge{{U: 0, V: 2, Len: 50}}), 0x01, 0x02, 0x03))
	// Wide column gaps stressing the varint delta encoding.
	f.Add(uint16(1023), encodeEdgeRecords([]Edge{{U: 0, V: 1, Len: 1}, {U: 0, V: 1000, Len: 500}, {U: 7, V: 9, Len: 65535}}))

	f.Fuzz(func(t *testing.T, numVertices uint16, data []byte) {
		n := int(numVertices)%1024 + 1
		edges := decodeEdgeRecords(data)

		g1, err1 := FromEdgeRuns(n, sliceIter(edges))
		g2, err2 := FromEdgeRuns(n, sliceIter(edges))

		// Determinism: same input, same outcome — bit for bit.
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error text: %q vs %q", err1, err2)
			}
			return
		}
		got1, got2 := collect(g1), collect(g2)
		if len(got1) != len(got2) {
			t.Fatalf("nondeterministic edge count: %d vs %d", len(got1), len(got2))
		}
		for i := range got1 {
			if got1[i] != got2[i] {
				t.Fatalf("nondeterministic edge %d: %+v vs %+v", i, got1[i], got2[i])
			}
		}

		// Structural invariants on the accepted store.
		if g1.NumVertices() != n {
			t.Fatalf("n = %d, want %d", g1.NumVertices(), n)
		}
		if int64(len(got1)) != g1.NNZ() {
			t.Fatalf("decoded %d edges, nnz = %d", len(got1), g1.NNZ())
		}
		var sum int64
		for u := 0; u < n; u++ {
			d, err := g1.Degree(uint32(u))
			if err != nil {
				t.Fatalf("Degree(%d): %v", u, err)
			}
			sum += d
		}
		if sum != g1.NNZ() {
			t.Fatalf("degree sum %d != nnz %d", sum, g1.NNZ())
		}
		var prev Edge
		for i, e := range got1 {
			if int(e.U) >= n || int(e.V) >= n {
				t.Fatalf("edge %d out of range: %+v", i, e)
			}
			if e.U == e.V {
				t.Fatalf("self loop survived: %+v", e)
			}
			if e.Len == 0 {
				t.Fatalf("zero-length entry survived: %+v", e)
			}
			if i > 0 && (prev.U > e.U || (prev.U == e.U && prev.V >= e.V)) {
				t.Fatalf("edges not strictly CSR-ordered at %d: %+v after %+v", i, e, prev)
			}
			prev = e
		}

		// Round trip: re-streaming the accepted store must reproduce it.
		g3, err := FromEdgeRuns(n, sliceIter(got1))
		if err != nil {
			t.Fatalf("round trip errored: %v", err)
		}
		got3 := collect(g3)
		if len(got3) != len(got1) {
			t.Fatalf("round trip changed edge count: %d vs %d", len(got3), len(got1))
		}
		for i := range got1 {
			if got3[i] != got1[i] {
				t.Fatalf("round trip changed edge %d: %+v vs %+v", i, got3[i], got1[i])
			}
		}
	})
}
