package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kv"
)

// lsdSortPairs is the reference for sortPairsKernel: the LSD radix sort
// the modeled device runs, executed pass for pass. All 20 byte histograms
// come from one sweep; a column whose histogram puts every element in one
// bucket is uniform and its pass is skipped; every other column costs one
// read and one write of the whole buffer and one op per element.
func lsdSortPairs(ps []kv.Pair) (memBytes, ops int64) {
	n := len(ps)
	scratch := make([]kv.Pair, n)
	var counts [20][256]int
	for i := range ps {
		p := &ps[i]
		v, lo, hi := p.Val, p.Key.Lo, p.Key.Hi
		counts[0][byte(v)]++
		counts[1][byte(v>>8)]++
		counts[2][byte(v>>16)]++
		counts[3][byte(v>>24)]++
		counts[4][byte(lo)]++
		counts[5][byte(lo>>8)]++
		counts[6][byte(lo>>16)]++
		counts[7][byte(lo>>24)]++
		counts[8][byte(lo>>32)]++
		counts[9][byte(lo>>40)]++
		counts[10][byte(lo>>48)]++
		counts[11][byte(lo>>56)]++
		counts[12][byte(hi)]++
		counts[13][byte(hi>>8)]++
		counts[14][byte(hi>>16)]++
		counts[15][byte(hi>>24)]++
		counts[16][byte(hi>>32)]++
		counts[17][byte(hi>>40)]++
		counts[18][byte(hi>>48)]++
		counts[19][byte(hi>>56)]++
	}
	src, dst := ps, scratch
	passes := 0
	for col := 0; col < 20; col++ {
		c := &counts[col]
		uniform := false
		for _, cnt := range c {
			if cnt != 0 {
				uniform = cnt == n
				break
			}
		}
		if uniform {
			continue
		}
		passes++
		sum := 0
		for i := range c {
			cnt := c[i]
			c[i] = sum
			sum += cnt
		}
		switch {
		case col < 4:
			shift := uint(col * 8)
			for i := range src {
				p := src[i]
				dg := byte(p.Val >> shift)
				dst[c[dg]] = p
				c[dg]++
			}
		case col < 12:
			shift := uint((col - 4) * 8)
			for i := range src {
				p := src[i]
				dg := byte(p.Key.Lo >> shift)
				dst[c[dg]] = p
				c[dg]++
			}
		default:
			shift := uint((col - 12) * 8)
			for i := range src {
				p := src[i]
				dg := byte(p.Key.Hi >> shift)
				dst[c[dg]] = p
				c[dg]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
	return int64(passes) * 2 * int64(n) * kv.PairBytes, int64(passes) * int64(n)
}

// TestSortPairsKernelMatchesLSDReference holds the host kernel to the
// modeled LSD sort: identical output bytes and an identical charge, call
// for call, on the key shapes the pipeline produces and around the
// insertion-sort cutoff.
func TestSortPairsKernelMatchesLSDReference(t *testing.T) {
	// keySpaceHi is fingerprint.KeySpaceHi (fingerprint imports gpu), and
	// reads is about the benchmark input's read count.
	const keySpaceHi, reads = 1<<61 - 1, 60000
	shapes := []struct {
		name string
		gen  func(rng *rand.Rand) kv.Pair
	}{
		{"fingerprint", func(rng *rand.Rand) kv.Pair {
			return kv.Pair{Key: kv.Key{Hi: rng.Uint64() % keySpaceHi, Lo: rng.Uint64()},
				Val: uint32(rng.Intn(2 * reads))}
		}},
		{"edges", func(rng *rand.Rand) kv.Pair {
			u, v := uint64(rng.Intn(2*reads)), uint64(rng.Intn(2*reads))
			return kv.Pair{Key: kv.Key{Hi: u<<32 | v, Lo: uint64(63 + rng.Intn(37))}}
		}},
		{"uniform_top_bytes", func(rng *rand.Rand) kv.Pair {
			// One cluster node's slice of the fingerprint space: the top
			// bytes of Hi are shared by every key.
			return kv.Pair{Key: kv.Key{Hi: 3<<56 | 0x2a<<48 | rng.Uint64()>>24, Lo: rng.Uint64()},
				Val: uint32(rng.Intn(2 * reads))}
		}},
		{"equal_keys", func(rng *rand.Rand) kv.Pair {
			return kv.Pair{Key: kv.Key{Hi: 0xfeedface, Lo: 42}, Val: uint32(rng.Intn(2 * reads))}
		}},
		{"heavy_duplicates", func(rng *rand.Rand) kv.Pair {
			return kv.Pair{Key: kv.Key{Hi: uint64(rng.Intn(4)) << 60, Lo: uint64(rng.Intn(3))},
				Val: uint32(rng.Intn(5))}
		}},
	}
	sizes := []int{2, 3, msdCutoff - 1, msdCutoff, msdCutoff + 1, 2048, 4096, 65536}
	for si, shape := range shapes {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*si + n)))
				got := make([]kv.Pair, n)
				for i := range got {
					got[i] = shape.gen(rng)
				}
				want := append([]kv.Pair(nil), got...)
				wantMem, wantOps := lsdSortPairs(want)
				gotMem, gotOps := sortPairsKernel(got)
				if gotMem != wantMem || gotOps != wantOps {
					t.Fatalf("charge (%d, %d), LSD reference (%d, %d)", gotMem, gotOps, wantMem, wantOps)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pair %d = %v, LSD reference %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
