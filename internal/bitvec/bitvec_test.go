package bitvec

import (
	"math/rand"
	"strings"
	"testing"
)

func mustGet(t *testing.T, v *Vector, i uint32) bool {
	t.Helper()
	got, err := v.Get(i)
	if err != nil {
		t.Fatalf("Get(%d): %v", i, err)
	}
	return got
}

func mustSet(t *testing.T, v *Vector, i uint32) {
	t.Helper()
	if err := v.Set(i); err != nil {
		t.Fatalf("Set(%d): %v", i, err)
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	if v.Len() != 200 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, i := range []uint32{0, 1, 63, 64, 65, 127, 128, 199} {
		if mustGet(t, v, i) {
			t.Fatalf("bit %d should start clear", i)
		}
		mustSet(t, v, i)
		if !mustGet(t, v, i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	cases := []struct {
		name string
		n    int
		idx  uint32
		ok   bool
	}{
		{"empty_zero", 0, 0, false},
		{"first", 200, 0, true},
		{"last", 200, 199, true},
		{"one_past_end", 200, 200, false},
		{"word_boundary_in", 64, 63, true},
		{"word_boundary_out", 64, 64, false},
		{"far_out", 64, 1 << 30, false},
		{"max_uint32", 64, ^uint32(0), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := New(tc.n)
			_, getErr := v.Get(tc.idx)
			setErr := v.Set(tc.idx)
			for op, err := range map[string]error{"Get": getErr, "Set": setErr} {
				if tc.ok && err != nil {
					t.Errorf("%s(%d) on %d bits: unexpected error %v", op, tc.idx, tc.n, err)
				}
				if !tc.ok {
					if err == nil {
						t.Errorf("%s(%d) on %d bits: want out-of-range error", op, tc.idx, tc.n)
					} else if !strings.Contains(err.Error(), "out of range") {
						t.Errorf("%s(%d): error %q not descriptive", op, tc.idx, err)
					}
				}
			}
		})
	}
}

func TestPopCount(t *testing.T) {
	v := New(500)
	rng := rand.New(rand.NewSource(5))
	want := map[uint32]bool{}
	for i := 0; i < 200; i++ {
		b := uint32(rng.Intn(500))
		want[b] = true
		mustSet(t, v, b)
	}
	if v.PopCount() != len(want) {
		t.Errorf("PopCount = %d, want %d", v.PopCount(), len(want))
	}
}

func TestCloneIndependent(t *testing.T) {
	v := New(64)
	mustSet(t, v, 3)
	c := v.Clone()
	mustSet(t, c, 7)
	if mustGet(t, v, 7) {
		t.Error("Clone shares storage")
	}
	if !mustGet(t, c, 3) {
		t.Error("Clone lost bits")
	}
}

func TestBytes(t *testing.T) {
	if got := New(64).Bytes(); got != 8 {
		t.Errorf("Bytes(64 bits) = %d, want 8", got)
	}
	if got := New(65).Bytes(); got != 16 {
		t.Errorf("Bytes(65 bits) = %d, want 16", got)
	}
}
