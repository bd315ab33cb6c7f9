// Package dna provides nucleotide encodings, sequences, and read sets for
// the LaSAGNA assembly pipeline.
//
// Bases are encoded as 2-bit codes (A=0, C=1, G=2, T=3). A read set keeps
// its reads as one contiguous code buffer plus an offset table, which is
// how batches of reads are laid out before being shipped to the (simulated)
// device in the map phase.
//
// Every read r with identifier i contributes two string-graph vertices:
// the forward strand with vertex ID 2i and the Watson-Crick reverse
// complement with vertex ID 2i+1. The paper requires both because any
// overlap edge (u, v, l) implies the complementary edge (v', u', l).
package dna

import (
	"fmt"
	"strings"
)

// Alphabet is the number of distinct base codes.
const Alphabet = 4

// Base codes.
const (
	A byte = 0
	C byte = 1
	G byte = 2
	T byte = 3
)

var codeToLetter = [Alphabet]byte{'A', 'C', 'G', 'T'}

// letterToCode maps ASCII to base code; 0xFF marks an invalid letter.
var letterToCode [256]byte

func init() {
	for i := range letterToCode {
		letterToCode[i] = 0xFF
	}
	for code, letter := range codeToLetter {
		letterToCode[letter] = byte(code)
		letterToCode[letter+('a'-'A')] = byte(code)
	}
	// Ambiguous IUPAC codes collapse to A, matching the common assembler
	// convention of replacing N-runs before overlap detection.
	for _, amb := range []byte("NnRYSWKMBDHVryswkmbdhv") {
		letterToCode[amb] = A
	}
}

// CodeFor returns the 2-bit code for an ASCII base letter and whether the
// letter was a valid (possibly ambiguous) nucleotide character.
func CodeFor(letter byte) (byte, bool) {
	c := letterToCode[letter]
	return c, c != 0xFF
}

// LetterFor returns the ASCII letter for a 2-bit base code.
func LetterFor(code byte) byte { return codeToLetter[code&3] }

// ComplementCode returns the Watson-Crick complement of a base code
// (A<->T, C<->G), which is simply 3-code in this encoding.
func ComplementCode(code byte) byte { return 3 - code }

// Seq is a nucleotide sequence stored one base code per byte.
type Seq []byte

// ParseSeq converts an ASCII string of bases into a Seq. It returns an
// error on characters that are not nucleotide letters.
func ParseSeq(s string) (Seq, error) {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		c, ok := CodeFor(s[i])
		if !ok {
			return nil, fmt.Errorf("dna: invalid base %q at position %d", s[i], i)
		}
		out[i] = c
	}
	return out, nil
}

// MustParseSeq is ParseSeq that panics on error; intended for tests and
// literals.
func MustParseSeq(s string) Seq {
	q, err := ParseSeq(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the sequence as ASCII base letters.
func (s Seq) String() string {
	var b strings.Builder
	b.Grow(len(s))
	for _, c := range s {
		b.WriteByte(LetterFor(c))
	}
	return b.String()
}

// Clone returns an independent copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// ReverseComplement returns the reverse complement of s.
func (s Seq) ReverseComplement() Seq {
	out := make(Seq, len(s))
	for i, c := range s {
		out[len(s)-1-i] = ComplementCode(c)
	}
	return out
}

// ReverseComplementInto writes the reverse complement of s into dst, which
// must have the same length. It allows reuse of scratch buffers inside
// device kernels.
func (s Seq) ReverseComplementInto(dst Seq) {
	if len(dst) != len(s) {
		panic("dna: ReverseComplementInto length mismatch")
	}
	for i, c := range s {
		dst[len(s)-1-i] = ComplementCode(c)
	}
}

// Equal reports whether two sequences are identical.
func (s Seq) Equal(o Seq) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Vertex identifier conventions. A vertex names one strand of one read.

// ForwardVertex returns the vertex ID of read i's forward strand.
func ForwardVertex(readID uint32) uint32 { return readID << 1 }

// ComplementVertex returns the vertex naming the opposite strand of v.
func ComplementVertex(v uint32) uint32 { return v ^ 1 }

// ReadOfVertex returns the read ID that vertex v belongs to.
func ReadOfVertex(v uint32) uint32 { return v >> 1 }

// IsReverse reports whether v names a reverse-complement strand.
func IsReverse(v uint32) bool { return v&1 == 1 }

// ReadSet is an in-memory collection of reads laid out contiguously, the
// unit that the map phase streams to the device in batches.
type ReadSet struct {
	codes   []byte   // concatenated base codes of all reads
	offsets []uint32 // offsets[i] is the start of read i; len = NumReads+1
	maxLen  int
}

// NewReadSet returns an empty read set with capacity hints for the
// expected number of reads and total bases.
func NewReadSet(readsHint, basesHint int) *ReadSet {
	rs := &ReadSet{
		codes:   make([]byte, 0, basesHint),
		offsets: make([]uint32, 1, readsHint+1),
	}
	return rs
}

// Append adds a read and returns its read ID.
func (rs *ReadSet) Append(s Seq) uint32 {
	id := uint32(len(rs.offsets) - 1)
	rs.codes = append(rs.codes, s...)
	rs.offsets = append(rs.offsets, uint32(len(rs.codes)))
	if len(s) > rs.maxLen {
		rs.maxLen = len(s)
	}
	return id
}

// NumReads returns the number of reads.
func (rs *ReadSet) NumReads() int { return len(rs.offsets) - 1 }

// NumVertices returns the number of string-graph vertices (two per read).
func (rs *ReadSet) NumVertices() int { return 2 * rs.NumReads() }

// TotalBases returns the total base count across all reads.
func (rs *ReadSet) TotalBases() int64 { return int64(len(rs.codes)) }

// MaxLen returns the length of the longest read.
func (rs *ReadSet) MaxLen() int { return rs.maxLen }

// Len returns the length of read i.
func (rs *ReadSet) Len(i uint32) int {
	return int(rs.offsets[i+1] - rs.offsets[i])
}

// Read returns a view (not a copy) of read i's codes.
func (rs *ReadSet) Read(i uint32) Seq {
	return Seq(rs.codes[rs.offsets[i]:rs.offsets[i+1]])
}

// VertexSeq materializes the sequence named by vertex v: the read itself
// for forward vertices, its reverse complement for odd vertices.
func (rs *ReadSet) VertexSeq(v uint32) Seq {
	r := rs.Read(ReadOfVertex(v))
	if IsReverse(v) {
		return r.ReverseComplement()
	}
	return r.Clone()
}

// VertexLen returns the length of the sequence named by vertex v.
func (rs *ReadSet) VertexLen(v uint32) int { return rs.Len(ReadOfVertex(v)) }

// ApproxBytes estimates the host-memory footprint of the read set, used by
// the pipeline's peak-memory accounting.
func (rs *ReadSet) ApproxBytes() int64 {
	return int64(cap(rs.codes)) + 4*int64(cap(rs.offsets))
}
