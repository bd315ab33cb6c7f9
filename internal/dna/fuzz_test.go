package dna

import (
	"bytes"
	"testing"
)

// FuzzPackedRoundTrip feeds arbitrary bytes through the 2-bit packed
// read storage: every input is masked into valid base codes, split into
// reads, packed into a PackedReadSet and read back via Len, Read and
// ReadInto. Any mismatch means the packed representation the pipeline's
// host-memory budgets assume is lossy.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{3}, 33))                 // spans a word boundary
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3}, 40))        // several words
	f.Add([]byte("ACGTacgt arbitrary raw input \x00")) // masked to codes
	f.Fuzz(func(t *testing.T, raw []byte) {
		seq := make(Seq, len(raw))
		for i, b := range raw {
			seq[i] = b & 3
		}

		// Split the bases into reads, then append the whole input as one
		// more read so a single read crosses word boundaries. The first
		// byte picks the chunk size so the fuzzer explores different
		// read-boundary alignments.
		chunk := 1
		if len(raw) > 0 {
			chunk = int(raw[0])%7 + 1
		}
		rs := NewReadSet(4, 2*len(seq))
		for off := 0; off < len(seq); off += chunk {
			rs.Append(seq[off:min(off+chunk, len(seq))])
		}
		rs.Append(seq)
		prs := PackReadSet(rs)
		if prs.NumReads() != rs.NumReads() {
			t.Fatalf("NumReads = %d, want %d", prs.NumReads(), rs.NumReads())
		}
		if prs.MaxLen() != rs.MaxLen() {
			t.Fatalf("MaxLen = %d, want %d", prs.MaxLen(), rs.MaxLen())
		}
		buf := make(Seq, rs.MaxLen())
		for i := 0; i < rs.NumReads(); i++ {
			want := rs.Read(uint32(i))
			if prs.Len(uint32(i)) != len(want) {
				t.Fatalf("read %d: Len = %d, want %d", i, prs.Len(uint32(i)), len(want))
			}
			if got := prs.Read(uint32(i)); !got.Equal(want) {
				t.Fatalf("read %d: Read mismatch", i)
			}
			if got := prs.ReadInto(uint32(i), buf); !got.Equal(want) {
				t.Fatalf("read %d: ReadInto mismatch", i)
			}
		}
		if prs.ApproxBytes() < (rs.TotalBases()+3)/4 {
			t.Fatalf("ApproxBytes = %d, too small for %d bases", prs.ApproxBytes(), rs.TotalBases())
		}
	})
}

// FuzzParseSeq round-trips sequence text: any string ParseSeq accepts must
// render back (String) to text that re-parses to identical codes, and the
// reverse complement must be an involution.
func FuzzParseSeq(f *testing.F) {
	f.Add("")
	f.Add("ACGT")
	f.Add("acgtACGT")
	f.Add("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT")
	f.Add("ACGTN") // invalid letter
	f.Add("ACG T") // embedded space
	f.Fuzz(func(t *testing.T, s string) {
		seq, err := ParseSeq(s)
		if err != nil {
			return // invalid input is fine; it must just not panic
		}
		if len(seq) != len(s) {
			t.Fatalf("parsed length %d, input length %d", len(seq), len(s))
		}
		again, err := ParseSeq(seq.String())
		if err != nil {
			t.Fatalf("canonical text failed to re-parse: %v", err)
		}
		if !again.Equal(seq) {
			t.Fatal("String/ParseSeq round trip changed the sequence")
		}
		if rc2 := seq.ReverseComplement().ReverseComplement(); !rc2.Equal(seq) {
			t.Fatal("double reverse complement is not the identity")
		}
	})
}
