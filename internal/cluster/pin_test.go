package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/stats"
)

var updatePins = flag.Bool("update-pins", false,
	"rewrite testdata/pins.json from this run instead of comparing against it")

// pinPhase is the modeled, worker-count-independent part of a PhaseStats:
// its modeled time and tier bytes, and the host bytes its graph store
// held at peak (0, and so left out, in phases that hold none).
type pinPhase struct {
	Name                         string
	Modeled                      time.Duration
	DiskRead, DiskWrite, NetByte int64
	GraphHostPeak                int64 `json:",omitempty"`
}

// pin is everything about a run that must not depend on how it was
// scheduled: counters, modeled time per phase and per node, edge counts
// and the FASTA bytes.
type pin struct {
	Counters                           costmodel.Counters
	TotalModeled                       time.Duration
	Phases                             []pinPhase
	NodeModeled                        map[string][]time.Duration `json:",omitempty"`
	ReduceOverlapModeled, ReduceSerial time.Duration
	Candidate, Accepted, Reduced       int64
	FastaSHA256                        string
	// HostPeak is each phase's tracked host peak, recorded from the
	// single-node Workers=1 run only: more workers hold more blocks at
	// once, so the peak is a function of the worker count.
	HostPeak []int64 `json:",omitempty"`
}

func pinPhases(phases []stats.PhaseStats) []pinPhase {
	out := make([]pinPhase, len(phases))
	for i, p := range phases {
		out[i] = pinPhase{p.Name, p.Modeled, p.DiskRead, p.DiskWrite, p.NetBytes, p.GraphHostPeak}
	}
	return out
}

// maxGraphPeak is the run-level maximum of a pin's per-phase graph peaks.
func maxGraphPeak(p pin) int64 {
	var m int64
	for _, ps := range p.Phases {
		m = max(m, ps.GraphHostPeak)
	}
	return m
}

func fastaSum(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func pinCluster(t *testing.T, res *Result) pin {
	p := pin{
		Counters: res.Counters, TotalModeled: res.TotalModeled, Phases: pinPhases(res.Phases),
		NodeModeled:          map[string][]time.Duration{},
		ReduceOverlapModeled: res.ReduceOverlapModeled, ReduceSerial: res.ReduceSerialModeled,
		Candidate: res.CandidateEdges, Accepted: res.AcceptedEdges, Reduced: res.ReducedEdges,
		FastaSHA256: fastaSum(t, res.ContigPath),
	}
	for name, per := range res.NodeModeled {
		p.NodeModeled[string(name)] = per
	}
	return p
}

func pinSingle(t *testing.T, res *core.Result, workers int) pin {
	p := pin{
		Counters: res.Counters, TotalModeled: res.TotalModeled, Phases: pinPhases(res.Phases),
		Candidate: res.CandidateEdges, Accepted: res.AcceptedEdges, Reduced: res.ReducedEdges,
		FastaSHA256: fastaSum(t, res.ContigPath),
	}
	if workers == 1 {
		for _, ps := range res.Phases {
			p.HostPeak = append(p.HostPeak, ps.PeakHost)
		}
	}
	return p
}

// TestModeledPins holds every modeled number of the cluster and the
// single-node pipeline on testData to the values recorded in
// testdata/pins.json, for {1, 3} nodes x every graph backend at Workers 1
// and 4, and the single-node pipeline at Workers 1 and 4. The file was
// recorded before the node runtime moved into core (go test
// ./internal/cluster -run TestModeledPins -update-pins rewrites it):
// a worker count is not part of a cell's key, so the table also asserts
// modeled cost and graph peaks are worker-independent. The single-node
// cells also pin each phase's tracked host peak at Workers=1, which the
// Workers=4 variant leaves out. A recorded cell that no run produces
// fails too, so a backend dropped from core.Backends cannot leave its pins
// behind unnoticed. Every cluster run's largest per-phase graph peak must
// equal the single node's for its backend: the master builds and seals the
// one graph store both drivers hold.
func TestModeledPins(t *testing.T) {
	_, reads := testData(t)
	path := filepath.Join("testdata", "pins.json")
	want := map[string]pin{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	} else if !*updatePins {
		t.Fatal(err)
	}
	got := map[string]pin{}
	// check holds a cell's first variant (Workers=1) to the recording and
	// every later one to the first, less the host peaks it alone carries.
	check := func(key, variant string, p pin) {
		// Through JSON, so a recorded and a fresh pin compare alike (nil
		// versus empty maps).
		raw, _ := json.Marshal(p)
		var norm pin
		json.Unmarshal(raw, &norm)
		if first, ok := got[key]; ok {
			first.HostPeak = nil
			if !reflect.DeepEqual(first, norm) {
				t.Errorf("%s: %s differs from the cell's first variant:\n got %+v\nwant %+v", key, variant, norm, first)
			}
			return
		}
		got[key] = norm
		if w, ok := want[key]; !*updatePins && (!ok || !reflect.DeepEqual(w, norm)) {
			t.Errorf("%s (%s):\n got %+v\nwant %+v", key, variant, norm, w)
		}
	}
	for _, engine := range core.Backends {
		use := func(cfg *core.Config) { cfg.GraphBackend = engine }
		for _, workers := range []int{1, 4} {
			cfg := singleConfig(t)
			use(&cfg)
			cfg.Workers = workers
			p, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Assemble(reads)
			if err != nil {
				t.Fatal(err)
			}
			check("single/"+engine, fmt.Sprintf("Workers=%d", workers), pinSingle(t, res, workers))
		}
		for _, nodes := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				cfg := clusterConfig(t, nodes)
				use(&cfg.Config)
				cfg.Workers = workers
				cl, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Assemble(reads)
				if err != nil {
					t.Fatal(err)
				}
				// The key keeps the spelling of the retired fingerprint-range
				// shuffle's cells, so the recorded cells stay byte-identical.
				key := fmt.Sprintf("nodes=%d/%s/fingerprint=false", nodes, engine)
				cp := pinCluster(t, res)
				check(key, fmt.Sprintf("Workers=%d", workers), cp)
				if c, s := maxGraphPeak(cp), maxGraphPeak(got["single/"+engine]); c != s {
					t.Errorf("%s (Workers=%d): run-level graph peak %d, single node %d", key, workers, c, s)
				}
			}
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok && !*updatePins {
			t.Errorf("%s: recorded in %s but no run produces it", key, path)
		}
	}
	if *updatePins {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
