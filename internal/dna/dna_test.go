package dna

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSeq(rng *rand.Rand, n int) Seq {
	s := make(Seq, n)
	for i := range s {
		s[i] = byte(rng.Intn(Alphabet))
	}
	return s
}

func TestCodeLetterRoundTrip(t *testing.T) {
	for code := byte(0); code < Alphabet; code++ {
		letter := LetterFor(code)
		got, ok := CodeFor(letter)
		if !ok || got != code {
			t.Errorf("CodeFor(LetterFor(%d)) = %d, %v", code, got, ok)
		}
		lower := letter + ('a' - 'A')
		got, ok = CodeFor(lower)
		if !ok || got != code {
			t.Errorf("CodeFor(%q) = %d, %v; want %d", lower, got, ok, code)
		}
	}
}

func TestCodeForAmbiguousAndInvalid(t *testing.T) {
	if c, ok := CodeFor('N'); !ok || c != A {
		t.Errorf("CodeFor('N') = %d, %v; want A", c, ok)
	}
	for _, bad := range []byte{'X', 'Z', '!', ' ', '1', 0} {
		if _, ok := CodeFor(bad); ok {
			t.Errorf("CodeFor(%q) should be invalid", bad)
		}
	}
}

func TestParseSeqAndString(t *testing.T) {
	s, err := ParseSeq("GATACCAGTA")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "GATACCAGTA" {
		t.Errorf("round trip got %q", s.String())
	}
	if _, err := ParseSeq("GAT!C"); err == nil {
		t.Error("expected error for invalid base")
	}
}

func TestComplementCode(t *testing.T) {
	pairs := map[byte]byte{A: T, C: G, G: C, T: A}
	for in, want := range pairs {
		if got := ComplementCode(in); got != want {
			t.Errorf("ComplementCode(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestReverseComplementKnown(t *testing.T) {
	s := MustParseSeq("GATACCAGTA")
	want := "TACTGGTATC"
	if got := s.ReverseComplement().String(); got != want {
		t.Errorf("RC = %q, want %q", got, want)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		s := make(Seq, len(raw))
		for i, b := range raw {
			s[i] = b & 3
		}
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementInto(t *testing.T) {
	s := MustParseSeq("ACGTT")
	dst := make(Seq, 5)
	s.ReverseComplementInto(dst)
	if dst.String() != "AACGT" {
		t.Errorf("got %q, want AACGT", dst.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	s.ReverseComplementInto(make(Seq, 3))
}

func TestVertexConventions(t *testing.T) {
	for _, id := range []uint32{0, 1, 2, 1000, 1 << 30} {
		fwd := ForwardVertex(id)
		rev := ComplementVertex(fwd)
		if fwd != 2*id || rev != 2*id+1 {
			t.Fatalf("vertices for read %d: %d,%d", id, fwd, rev)
		}
		if ReadOfVertex(fwd) != id || ReadOfVertex(rev) != id {
			t.Fatalf("ReadOfVertex broken for read %d", id)
		}
		if IsReverse(fwd) || !IsReverse(rev) {
			t.Fatalf("IsReverse broken for read %d", id)
		}
		if ComplementVertex(rev) != fwd {
			t.Fatalf("ComplementVertex not involutive for read %d", id)
		}
	}
}

func TestReadSetBasics(t *testing.T) {
	rs := NewReadSet(4, 40)
	a := MustParseSeq("ACGT")
	b := MustParseSeq("GGGCCCTTTA")
	idA := rs.Append(a)
	idB := rs.Append(b)
	if idA != 0 || idB != 1 {
		t.Fatalf("ids = %d,%d", idA, idB)
	}
	if rs.NumReads() != 2 || rs.NumVertices() != 4 {
		t.Fatalf("NumReads=%d NumVertices=%d", rs.NumReads(), rs.NumVertices())
	}
	if rs.TotalBases() != 14 || rs.MaxLen() != 10 {
		t.Fatalf("TotalBases=%d MaxLen=%d", rs.TotalBases(), rs.MaxLen())
	}
	if !rs.Read(0).Equal(a) || !rs.Read(1).Equal(b) {
		t.Error("Read returned wrong data")
	}
	if rs.Len(0) != 4 || rs.Len(1) != 10 {
		t.Error("Len wrong")
	}
}

func TestReadSetVertexSeq(t *testing.T) {
	rs := NewReadSet(1, 8)
	rs.Append(MustParseSeq("ACGTT"))
	if got := rs.VertexSeq(0).String(); got != "ACGTT" {
		t.Errorf("forward vertex seq = %q", got)
	}
	if got := rs.VertexSeq(1).String(); got != "AACGT" {
		t.Errorf("reverse vertex seq = %q", got)
	}
	if rs.VertexLen(0) != 5 || rs.VertexLen(1) != 5 {
		t.Error("VertexLen wrong")
	}
}

func TestPackedReadSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := NewReadSet(10, 1000)
	var want []Seq
	for i := 0; i < 10; i++ {
		s := randomSeq(rng, 50+rng.Intn(60))
		want = append(want, s)
		rs.Append(s)
	}
	p := PackReadSet(rs)
	if p.NumReads() != 10 {
		t.Fatalf("NumReads = %d", p.NumReads())
	}
	buf := make(Seq, p.MaxLen())
	for i, w := range want {
		if got := p.ReadInto(uint32(i), buf); !got.Equal(w) {
			t.Errorf("read %d mismatch", i)
		}
		if got := p.Read(uint32(i)); !got.Equal(w) {
			t.Errorf("Read %d mismatch", i)
		}
		if p.Len(uint32(i)) != len(w) {
			t.Errorf("Len(%d) = %d, want %d", i, p.Len(uint32(i)), len(w))
		}
	}
	if p.MaxLen() != rs.MaxLen() {
		t.Errorf("MaxLen %d != %d", p.MaxLen(), rs.MaxLen())
	}
}

func TestSeqCloneIndependent(t *testing.T) {
	s := MustParseSeq("ACGT")
	c := s.Clone()
	c[0] = T
	if s[0] != A {
		t.Error("Clone shares storage")
	}
}
