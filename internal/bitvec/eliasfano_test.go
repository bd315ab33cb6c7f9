package bitvec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// buildEliasFano seals vals (non-decreasing, each <= universe).
func buildEliasFano(t testing.TB, vals []uint64, universe uint64) *EliasFano {
	t.Helper()
	b, err := NewEliasFanoBuilder(len(vals), universe)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := b.Append(v); err != nil {
			t.Fatalf("Append(%d): %v", v, err)
		}
	}
	ef, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ef
}

// checkEliasFano holds Get and Pair to the appended values on every
// index, the select under them to a bit scan of the high vector, and the
// out-of-range indices to errors.
func checkEliasFano(t testing.TB, ef *EliasFano, vals []uint64) {
	t.Helper()
	n := len(vals)
	for i, want := range vals {
		got, err := ef.Get(i)
		if err != nil || got != want {
			t.Fatalf("n=%d l=%d: Get(%d) = %d, %v; want %d", n, ef.l, i, got, err, want)
		}
		p, err := ef.rank.Select1(i)
		if err != nil || p != naiveSelect(ef.high, i) {
			t.Fatalf("n=%d l=%d: Select1(%d) = %d, %v; want %d", n, ef.l, i, p, err, naiveSelect(ef.high, i))
		}
		lo, hi, err := ef.Pair(i)
		if i+1 == n {
			if err == nil {
				t.Fatalf("n=%d: Pair(%d) on the last value should error", n, i)
			}
			continue
		}
		if err != nil || lo != want || hi != vals[i+1] {
			t.Fatalf("n=%d l=%d: Pair(%d) = %d, %d, %v; want %d, %d", n, ef.l, i, lo, hi, err, want, vals[i+1])
		}
	}
	for _, i := range []int{-1, n, n + 1} {
		if _, err := ef.Get(i); err == nil {
			t.Fatalf("n=%d: Get(%d) should error", n, i)
		}
		if _, _, err := ef.Pair(i); err == nil {
			t.Fatalf("n=%d: Pair(%d) should error", n, i)
		}
	}
}

func TestEliasFanoPairMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ramp := func(n int, step uint64) []uint64 {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i) * step
		}
		return vals
	}
	repeat := func(n int, v uint64) []uint64 {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = v
		}
		return vals
	}
	// One long run of equal values, then a jump: the next-set-bit scan
	// crosses many empty words.
	cliff := append(repeat(700, 3), repeat(700, 1<<30)...)
	random := make([]uint64, 3000)
	for i := 1; i < len(random); i++ {
		random[i] = random[i-1] + uint64(rng.Intn(90))
	}
	cases := []struct {
		name     string
		vals     []uint64
		universe uint64
	}{
		{"n0", nil, 100},
		{"n1", []uint64{7}, 100},
		{"n1_zero_universe", []uint64{0}, 0},
		{"n2", []uint64{5, 900}, 1000},
		{"n2_equal", []uint64{900, 900}, 1000},
		{"l0_dense", ramp(1500, 1), 1499},
		{"l0_universe_below_n", repeat(600, 2), 5},
		{"l_positive", ramp(1500, 37), 1499 * 37},
		{"all_equal_zero", repeat(1000, 0), 1 << 20},
		{"all_equal_top", repeat(1000, 1<<20), 1 << 20},
		{"cliff", cliff, 1 << 30},
		{"max_universe_n2", []uint64{1, math.MaxUint64}, math.MaxUint64},
		{"max_universe", []uint64{0, 1 << 40, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}, math.MaxUint64},
		{"random", random, random[len(random)-1] + 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ef := buildEliasFano(t, tc.vals, tc.universe)
			if tc.name == "l0_dense" && ef.l != 0 || tc.name == "l_positive" && ef.l == 0 {
				t.Fatalf("case does not exercise the intended low width: l = %d", ef.l)
			}
			checkEliasFano(t, ef, tc.vals)
		})
	}
}

// TestEliasFanoBytesFormula pins the encoded size to its closed form: the
// select speed-ups added no directory words.
func TestEliasFanoBytesFormula(t *testing.T) {
	vals := make([]uint64, 5000)
	for i := range vals {
		vals[i] = uint64(i) * 23
	}
	ef := buildEliasFano(t, vals, 5000*23)
	l := bits.Len64(23) - 1
	lowWords := (l*len(vals)+63)/64 + 1
	highWords := (len(vals) + (5000*23)>>l + 1 + 63) / 64
	superblocks := (highWords + 7) / 8
	want := int64(8 * (lowWords + highWords + 2*superblocks + 1))
	if got := ef.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestSelect64MatchesClearLowest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := []uint64{1, 1 << 63, math.MaxUint64, 0x8000000000000001, 0x00ff00ff00ff00ff, 0xaaaaaaaaaaaaaaaa}
	for i := 0; i < 2000; i++ {
		// Mix densities: AND thins, OR thickens.
		w := rng.Uint64()
		switch i % 3 {
		case 1:
			w &= rng.Uint64() & rng.Uint64()
		case 2:
			w |= rng.Uint64() | rng.Uint64()
		}
		words = append(words, w)
	}
	for _, w := range words {
		rest := w
		for k := 0; rest != 0; k++ {
			if got, want := select64(w, uint(k)), bits.TrailingZeros64(rest); got != want {
				t.Fatalf("select64(%#x, %d) = %d, want %d", w, k, got, want)
			}
			rest &= rest - 1
		}
	}
}

// TestSelect1SkewedDistributions drives the superblock search where the
// interpolated guess is far off: all ones packed at one end.
func TestSelect1SkewedDistributions(t *testing.T) {
	const n = 1 << 16
	for _, tc := range []struct {
		name string
		set  func(i int) bool
	}{
		{"front", func(i int) bool { return i < 3000 }},
		{"back", func(i int) bool { return i >= n-3000 }},
		{"both_ends", func(i int) bool { return i < 700 || i >= n-700 }},
		{"lone_last", func(i int) bool { return i == n-1 }},
	} {
		v := New(n)
		var want []int
		for i := 0; i < n; i++ {
			if tc.set(i) {
				mustSet(t, v, uint32(i))
				want = append(want, i)
			}
		}
		r := NewRankIndex(v)
		for k, p := range want {
			if got, err := r.Select1(k); err != nil || got != p {
				t.Fatalf("%s: Select1(%d) = %d, %v; want %d", tc.name, k, got, err, p)
			}
		}
	}
}

// FuzzEliasFanoPair decodes the input as uvarint gaps of a monotone
// sequence (plus slack above its last value for the universe) and holds
// Get, Pair and Select1 to it on every index.
func FuzzEliasFanoPair(f *testing.F) {
	gaps := func(slack uint64, g ...uint64) []byte {
		out := binary.AppendUvarint(nil, slack)
		for _, v := range g {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	f.Add(gaps(0))
	f.Add(gaps(9, 4))
	f.Add(gaps(0, 0, 0, 0, 0))
	f.Add(gaps(1, 1, 1, 1, 1, 1, 1, 1))
	f.Add(gaps(1<<40, 3, 1<<33, 0, 0, 70000))
	f.Add(gaps(0, math.MaxUint64))
	f.Fuzz(func(t *testing.T, data []byte) {
		slack, n := binary.Uvarint(data)
		if n <= 0 {
			return
		}
		data = data[n:]
		var vals []uint64
		var cur uint64
		for len(data) > 0 && len(vals) < 4096 {
			g, n := binary.Uvarint(data)
			if n <= 0 {
				break
			}
			data = data[n:]
			if cur+g < cur {
				break // would wrap
			}
			cur += g
			vals = append(vals, cur)
		}
		universe := cur + slack
		if universe < cur {
			universe = math.MaxUint64
		}
		checkEliasFano(t, buildEliasFano(t, vals, universe), vals)
	})
}
