package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/fingerprint"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/stats"
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
		m := NewMapper(gpu.NewDevice(gpu.K40, nil), nil, lmin, batchReads, rs.MaxLen())
		m.Workers = workers
		return mapPartitionFiles(t, m, rs)
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

// TestMapperMatchesTupleOracle holds every raw partition byte to the
// tuple-at-a-time emission: per read, per strand, l ascending, the
// l-suffix's fingerprint to the suffix file and the l-prefix's to the
// prefix file, both hashed with the reference Horner fingerprint. The
// reads include empty ones, ones shorter than, equal to and one base
// longer than lmin, and ones of the maximum length, and the source is
// mapped plain and 2-bit packed under every worker count and batch size.
func TestMapperMatchesTupleOracle(t *testing.T) {
	const lmin, maxLen = 20, 70
	rng := rand.New(rand.NewSource(443))
	lengths := []int{0, lmin - 1, lmin, lmin + 1, maxLen, 0, lmin + 1, maxLen, lmin}
	for len(lengths) < 200 {
		lengths = append(lengths, rng.Intn(maxLen+1))
	}
	rs := dna.NewReadSet(len(lengths), maxLen*len(lengths))
	for _, n := range lengths {
		s := make(dna.Seq, n)
		for j := range s {
			s[j] = byte(rng.Intn(4))
		}
		rs.Append(s)
	}
	want := tupleOracle(rs, lmin)
	sources := []struct {
		name string
		rs   dna.ReadSource
	}{{"plain", rs}, {"packed", dna.PackSource(rs)}}
	for _, src := range sources {
		for _, workers := range []int{1, 2, 3} {
			for _, batch := range []int{1, 7, DefaultConfig("").MapBatchReads} {
				t.Run(fmt.Sprintf("%s/workers=%d/batch=%d", src.name, workers, batch), func(t *testing.T) {
					m := NewMapper(gpu.NewDevice(gpu.K40, nil), nil, lmin, batch, src.rs.MaxLen())
					m.Workers = workers
					got := mapPartitionFiles(t, m, src.rs)
					if len(got) != len(want) {
						t.Errorf("%d partition files, want %d", len(got), len(want))
					}
					for name, data := range want {
						if !bytes.Equal(got[name], data) {
							t.Errorf("%s: %d bytes differ from the %d-byte tuple emission",
								name, len(got[name]), len(data))
						}
					}
				})
			}
		}
	}
}

// tupleOracle returns the raw partition files Map must write for rs, by
// name, emitting one tuple at a time.
func tupleOracle(rs dna.ReadSource, lmin int) map[string][]byte {
	table := fingerprint.NewTable(rs.MaxLen())
	files := map[string][]byte{}
	emit := func(k kvio.Kind, l int, key kv.Key, v uint32) {
		var rec [kv.PairBytes]byte
		kv.Pair{Key: key, Val: v}.Encode(rec[:])
		name := RawPartition(k, l)
		files[name] = append(files[name], rec[:]...)
	}
	for r := 0; r < rs.NumReads(); r++ {
		for strand := uint32(0); strand < 2; strand++ {
			v := dna.ForwardVertex(uint32(r)) | strand
			seq := rs.VertexSeq(v)
			for l := lmin; l < len(seq); l++ {
				emit(kvio.Suffix, l, table.Fingerprint(seq[len(seq)-l:]), v)
				emit(kvio.Prefix, l, table.Fingerprint(seq[:l]), v)
			}
		}
	}
	return files
}

// A writer error and a cancellation mid-Map both drain the ordered pool at
// Workers=4: the error surfaces, the slab bytes of every batch mapped but
// never written are off the host tracker again and no worker goroutine is
// left. TestFindOverlapsDrainsOnErrorAndCancel is the Reduce-side twin.
func TestMapRangeDrainsOnErrorAndCancel(t *testing.T) {
	const lmin, batchReads = 31, 16
	_, base := testGenomeReads(t, 2000, 48, 10)
	// One longer read halfway through is the only source of the lengths
	// [48, 56), so a partition among them first opens mid-Map.
	long := make(dna.Seq, 56)
	copy(long, base.Read(0))
	copy(long[48:], base.Read(1))
	half := base.NumReads() / 2
	reads := dna.NewReadSet(base.NumReads()+1, 48*(base.NumReads()+1)+8)
	for i := 0; i < base.NumReads(); i++ {
		if i == half {
			reads.Append(long)
		}
		reads.Append(base.Read(uint32(i)))
	}
	newMapper := func() *Mapper {
		m := NewMapper(gpu.NewDevice(gpu.K40, nil), new(stats.MemTracker), lmin, batchReads, reads.MaxLen())
		m.Workers = 4
		return m
	}

	t.Run("writer error", func(t *testing.T) {
		dir := t.TempDir()
		blocked := kvio.PartitionPath(dir, kvio.Suffix, 50)
		if err := os.Mkdir(blocked, 0o755); err != nil {
			t.Fatal(err)
		}
		m := newMapper()
		sfxW := kvio.NewPartitionWriters(dir, kvio.Suffix, nil)
		pfxW := kvio.NewPartitionWriters(dir, kvio.Prefix, nil)
		defer sfxW.Close()
		defer pfxW.Close()
		baseline := runtime.NumGoroutine()
		err := m.MapRange(context.Background(), reads, 0, reads.NumReads(), sfxW, pfxW)
		if err == nil || !strings.Contains(err.Error(), filepath.Base(blocked)) {
			t.Fatalf("error = %v, want the failure to open %s", err, blocked)
		}
		if n := sfxW.Counts()[lmin]; n <= 0 || n >= 2*int64(reads.NumReads()) {
			t.Errorf("%d suffix tuples of length %d written, want a mid-Map failure", n, lmin)
		}
		if cur := m.HostMem.Current(); cur != 0 {
			t.Errorf("host tracker at %d after the failure, want 0", cur)
		}
		waitForGoroutines(t, baseline)
	})

	t.Run("cancellation", func(t *testing.T) {
		dir := t.TempDir()
		m := newMapper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The first device charge any worker makes cancels the run; the
		// batches claimed after that fail before they fingerprint.
		m.Dev.SetHooks(cancelOnCharge(cancel))
		sfxW := kvio.NewPartitionWriters(dir, kvio.Suffix, nil)
		pfxW := kvio.NewPartitionWriters(dir, kvio.Prefix, nil)
		defer sfxW.Close()
		defer pfxW.Close()
		baseline := runtime.NumGoroutine()
		err := m.MapRange(ctx, reads, 0, reads.NumReads(), sfxW, pfxW)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if cur := m.HostMem.Current(); cur != 0 {
			t.Errorf("host tracker at %d after the cancellation, want 0", cur)
		}
		waitForGoroutines(t, baseline)
	})
}

// mapPartitionFiles maps every read of rs with m into fresh partition
// writers and returns the raw partition files' bytes by name.
func mapPartitionFiles(t *testing.T, m *Mapper, rs dna.ReadSource) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	sfxW := kvio.NewPartitionWriters(dir, kvio.Suffix, nil)
	pfxW := kvio.NewPartitionWriters(dir, kvio.Prefix, nil)
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
