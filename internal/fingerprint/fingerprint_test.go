package fingerprint

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/kv"
)

func testDevice() *gpu.Device { return gpu.NewDevice(gpu.K40, nil) }

func randomSeq(rng *rand.Rand, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// addmod returns a+b mod m for a,b < m.
func addmod(a, b, m uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 || s >= m {
		s -= m
	}
	return s
}

func TestMulmodSmall(t *testing.T) {
	cases := []struct{ a, b, m, want uint64 }{
		{7, 8, 13, 4},
		{0, 99, 13, 0},
		{12, 12, 13, 1},
	}
	for _, c := range cases {
		if got := mulmod(c.a, c.b, c.m); got != c.want {
			t.Errorf("mulmod(%d,%d,%d) = %d, want %d", c.a, c.b, c.m, got, c.want)
		}
	}
}

func TestMulmodLargeAgainstBig(t *testing.T) {
	// Cross-check against iterated addition for values near the moduli.
	f := func(a, b uint64) bool {
		for _, m := range []uint64{ParamsA.Prime, ParamsB.Prime} {
			am, bm := a%m, b%m
			got := mulmod(am, bm, m)
			// Compute via decomposition: a*b = a*(bHi*2^32 + bLo).
			bHi, bLo := bm>>32, bm&0xFFFFFFFF
			part := mulmod(am, bHi, m)
			for i := 0; i < 32; i++ {
				part = addmod(part, part, m)
			}
			want := addmod(part, mulmod(am, bLo, m), m)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddSubMod(t *testing.T) {
	m := ParamsB.Prime
	if got := addmod(m-1, m-1, m); got != m-2 {
		t.Errorf("addmod overflow case = %d, want %d", got, m-2)
	}
	if got := submod(0, m-1, m); got != 1 {
		t.Errorf("submod wrap = %d, want 1", got)
	}
	if got := submod(5, 3, m); got != 2 {
		t.Errorf("submod = %d, want 2", got)
	}
}

func TestPrefixesMatchReference(t *testing.T) {
	table := NewTable(200)
	k := NewKernel(table)
	dev := testDevice()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 100, 101, 128, 200} {
		s := randomSeq(rng, n)
		got := k.Prefixes(dev, s, make([]kv.Key, n))
		for i := 0; i < n; i++ {
			want := table.Fingerprint(s[:i+1])
			if got[i] != want {
				t.Fatalf("n=%d: prefix %d scan=%v reference=%v", n, i, got[i], want)
			}
		}
	}
}

func TestSuffixesMatchReference(t *testing.T) {
	table := NewTable(200)
	k := NewKernel(table)
	dev := testDevice()
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 64, 101, 150} {
		s := randomSeq(rng, n)
		prefixes := k.Prefixes(dev, s, make([]kv.Key, n))
		got := k.Suffixes(dev, prefixes, make([]kv.Key, n))
		for i := 0; i < n; i++ {
			want := table.Fingerprint(s[i:])
			if got[i] != want {
				t.Fatalf("n=%d: suffix %d scan=%v reference=%v", n, i, got[i], want)
			}
		}
	}
}

func TestScanPropertyAgainstReference(t *testing.T) {
	table := NewTable(300)
	k := NewKernel(table)
	dev := testDevice()
	f := func(raw []byte) bool {
		if len(raw) == 0 || len(raw) > 300 {
			return true
		}
		s := make(dna.Seq, len(raw))
		for i, b := range raw {
			s[i] = b & 3
		}
		n := len(s)
		prefixes := k.Prefixes(dev, s, make([]kv.Key, n))
		suffixes := k.Suffixes(dev, prefixes, make([]kv.Key, n))
		for i := 0; i < n; i++ {
			if prefixes[i] != table.Fingerprint(s[:i+1]) {
				return false
			}
			if suffixes[i] != table.Fingerprint(s[i:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOverlapFingerprintsAgree(t *testing.T) {
	// The pipeline's core identity: if the l-suffix of a equals the
	// l-prefix of b, their fingerprints must be equal, and unequal strings
	// of the same length must (whp) differ.
	table := NewTable(100)
	k := NewKernel(table)
	dev := testDevice()
	a := dna.MustParseSeq("ACGTACGTACGTTGCA")
	b := dna.MustParseSeq("ACGTTGCAGGGTTTCC")
	// 8-suffix of a = "ACGTTGCA" = 8-prefix of b.
	pa := k.Prefixes(dev, a, make([]kv.Key, len(a)))
	sa := k.Suffixes(dev, pa, make([]kv.Key, len(a)))
	pb := k.Prefixes(dev, b, make([]kv.Key, len(b)))
	if sa[len(a)-8] != pb[7] {
		t.Error("matching 8-overlap should produce equal fingerprints")
	}
	if sa[len(a)-9] == pb[8] {
		t.Error("non-matching 9-overlap should produce different fingerprints")
	}
}

func TestDistinctLengthsDistinctFingerprints(t *testing.T) {
	// With the +1 digit offset, runs of A must not collapse: prefix
	// fingerprints of "AAAA..." must all differ.
	table := NewTable(50)
	k := NewKernel(table)
	dev := testDevice()
	s := make(dna.Seq, 50) // all A
	fps := k.Prefixes(dev, s, make([]kv.Key, 50))
	seen := map[kv.Key]bool{}
	for _, fp := range fps {
		if seen[fp] {
			t.Fatal("prefix fingerprints of homopolymer collapsed")
		}
		seen[fp] = true
	}
}

func TestPrefixesPanicsBeyondMaxLen(t *testing.T) {
	table := NewTable(10)
	k := NewKernel(table)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for read longer than table maxLen")
		}
	}()
	k.Prefixes(testDevice(), make(dna.Seq, 11), make([]kv.Key, 11))
}

func TestKernelChargesDevice(t *testing.T) {
	dev := testDevice()
	table := NewTable(100)
	k := NewKernel(table)
	s := randomSeq(rand.New(rand.NewSource(3)), 100)
	k.Prefixes(dev, s, make([]kv.Key, 100))
	if dev.Meter().Snapshot().DeviceOps == 0 {
		t.Error("Prefixes should charge device ops")
	}
}

func BenchmarkPrefixes101(b *testing.B) {
	table := NewTable(101)
	k := NewKernel(table)
	dev := testDevice()
	s := randomSeq(rand.New(rand.NewSource(4)), 101)
	out := make([]kv.Key, 101)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Prefixes(dev, s, out)
	}
}

func BenchmarkSuffixes101(b *testing.B) {
	table := NewTable(101)
	k := NewKernel(table)
	dev := testDevice()
	s := randomSeq(rand.New(rand.NewSource(5)), 101)
	prefixes := k.Prefixes(dev, s, make([]kv.Key, 101))
	out := make([]kv.Key, 101)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Suffixes(dev, prefixes, out)
	}
}

// TestEmptyReadYieldsNothing pins the empty-record guard: a read of zero
// bases has no prefixes or suffixes and charges the device nothing, on
// both kernels.
func TestEmptyReadYieldsNothing(t *testing.T) {
	table := NewTable(10)
	kernels := map[string]interface {
		ScanRead(dev *gpu.Device, s dna.Seq, pout, sout []kv.Key) (pf, sf []kv.Key)
	}{"scan": NewKernel(table), "naive": NewNaiveKernel(table)}
	for name, kern := range kernels {
		meter := costmodel.NewMeter()
		pf, sf := kern.ScanRead(gpu.NewDevice(gpu.K40, meter), dna.Seq{}, make([]kv.Key, 4), nil)
		if len(pf) != 0 || len(sf) != 0 {
			t.Fatalf("%s: empty read gave %d prefixes, %d suffixes", name, len(pf), len(sf))
		}
		if got := meter.Snapshot(); got != (costmodel.Counters{}) {
			t.Fatalf("%s: empty read charged %+v", name, got)
		}
	}
}
