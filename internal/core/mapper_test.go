package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/kvio"
)

// TestMapperPartitionsIndependentOfBatching maps reads of mixed lengths,
// including reads shorter than, equal to and one base longer than lmin,
// and pins that the raw partition files do not depend on how reads are
// batched or how many batches run at once.
func TestMapperPartitionsIndependentOfBatching(t *testing.T) {
	const lmin = 20
	rng := rand.New(rand.NewSource(281))
	lengths := []int{lmin - 7, lmin, lmin + 1, lmin + 1, lmin}
	for len(lengths) < 150 {
		lengths = append(lengths, 10+rng.Intn(50))
	}
	rs := dna.NewReadSet(len(lengths), 60*len(lengths))
	for _, n := range lengths {
		s := make(dna.Seq, n)
		for j := range s {
			s[j] = byte(rng.Intn(4))
		}
		rs.Append(s)
	}

	mapFiles := func(workers, batchReads int) map[string][]byte {
		dir := t.TempDir()
		sfxW := kvio.NewPartitionWriters(dir, kvio.Suffix, nil)
		pfxW := kvio.NewPartitionWriters(dir, kvio.Prefix, nil)
		m := NewMapper(gpu.NewDevice(gpu.K40, nil), nil, lmin, batchReads, rs.MaxLen())
		m.Workers = workers
		if err := m.MapRange(context.Background(), rs, 0, rs.NumReads(), sfxW, pfxW); err != nil {
			t.Fatal(err)
		}
		if err := sfxW.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pfxW.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	want := mapFiles(1, 1)
	if len(want) == 0 {
		t.Fatal("Map wrote no partitions")
	}
	for _, workers := range []int{1, 2, 3} {
		for _, batch := range []int{1, 7, DefaultConfig("").MapBatchReads} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(t *testing.T) {
				got := mapFiles(workers, batch)
				if len(got) != len(want) {
					t.Fatalf("%d partition files, want %d", len(got), len(want))
				}
				for name, data := range want {
					if !bytes.Equal(got[name], data) {
						t.Errorf("%s differs from the Workers=1, one-read-batch run", name)
					}
				}
			})
		}
	}
}
