package spmat

import (
	"bytes"
	"encoding/binary"
	"reflect"
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

// FuzzSpmatFromEdgeRuns feeds arbitrary — well-formed, malformed,
// duplicated, unsorted, truncated — edge records into the CSR builder.
// The contract under fuzz: never panic, fail loudly (error) on any
// order/range/length violation, dedupe deterministically, and satisfy
// the CSR structural invariants on success.
func FuzzSpmatFromEdgeRuns(f *testing.F) {
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

	f.Fuzz(func(t *testing.T, numVertices uint16, data []byte) {
		n := int(numVertices)%1024 + 1
		edges := decodeEdgeRecords(data)

		m1, err1 := FromEdgeRuns(n, sliceIter(edges))
		m2, err2 := FromEdgeRuns(n, sliceIter(edges))

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
		if !reflect.DeepEqual(collect(m1), collect(m2)) {
			t.Fatal("nondeterministic matrix from identical input")
		}

		// CSR invariants.
		if m1.NumVertices() != n {
			t.Fatalf("n = %d, want %d", m1.NumVertices(), n)
		}
		if got := m1.rowPtr[n]; got != m1.NNZ() {
			t.Fatalf("rowPtr[n] = %d, nnz = %d", got, m1.NNZ())
		}
		for u := 0; u < n; u++ {
			if m1.rowPtr[u] > m1.rowPtr[u+1] {
				t.Fatalf("rowPtr not monotone at %d", u)
			}
			cols, vals, _, _ := m1.Row(uint32(u), nil)
			for i, c := range cols {
				if int(c) >= n {
					t.Fatalf("row %d: column %d out of range", u, c)
				}
				if uint32(u) == c {
					t.Fatalf("row %d: self loop survived", u)
				}
				if vals[i] == 0 {
					t.Fatalf("row %d: zero-length entry survived", u)
				}
				if i > 0 && cols[i-1] >= c {
					t.Fatalf("row %d: columns not strictly increasing: %v", u, cols)
				}
			}
		}

		// Round trip: re-streaming the accepted matrix must reproduce it.
		m3, err := FromEdgeRuns(n, sliceIter(collect(m1)))
		if err != nil {
			t.Fatalf("round trip errored: %v", err)
		}
		if !reflect.DeepEqual(collect(m1), collect(m3)) {
			t.Fatal("round trip changed the matrix")
		}
	})
}
