package core

import (
	"os"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// The overlap model re-places existing charges on concurrent timelines;
// it never adds or removes work. Per phase, the modeled seconds plus the
// seconds overlap hid are exactly the phase's metered work priced
// additively; the double-buffered Sort hides some; and the output and
// counters do not depend on how many workers ran the partitions.
func TestStreamsIdenticalOutputLowerModeledTime(t *testing.T) {
	_, reads := testGenomeReads(t, 3000, 56, 10)
	run := func(workers int) (*Result, []byte, map[string]costmodel.Counters) {
		cfg := smallConfig(t)
		cfg.Workers = workers
		observer, tr, _ := fullObserver(nil)
		cfg.Obs = observer
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		fasta, err := os.ReadFile(res.ContigPath)
		if err != nil {
			t.Fatal(err)
		}
		deltas := map[string]costmodel.Counters{}
		for _, e := range tr.Events() {
			if e.Phase == "X" && e.Cat == "stage" {
				deltas[e.Name], _ = e.Args["counters"].(costmodel.Counters)
			}
		}
		return res, fasta, deltas
	}

	one, oneFasta, _ := run(1)
	four, fourFasta, deltas := run(4)

	if string(fourFasta) != string(oneFasta) {
		t.Errorf("FASTA differs at Workers 4 (%d bytes) vs 1 (%d bytes)", len(fourFasta), len(oneFasta))
	}
	if four.Counters != one.Counters {
		t.Errorf("cost counters differ: Workers 4 %+v, Workers 1 %+v", four.Counters, one.Counters)
	}
	if four.AcceptedEdges != one.AcceptedEdges || four.CandidateEdges != one.CandidateEdges {
		t.Errorf("edges differ: Workers 4 %d/%d, Workers 1 %d/%d",
			four.AcceptedEdges, four.CandidateEdges, one.AcceptedEdges, one.CandidateEdges)
	}

	prof := smallConfig(t).Profile()
	var saved time.Duration
	for _, name := range []PhaseName{PhaseMap, PhaseSort, PhaseReduce, PhaseCompress} {
		ps, ok := four.PhaseByName(name)
		d, traced := deltas[string(name)]
		if !ok || !traced {
			t.Fatalf("phase %s: stats %v, stage span %v", name, ok, traced)
		}
		if ps.OverlapSaved < 0 {
			t.Errorf("phase %s: negative OverlapSaved %v", name, ps.OverlapSaved)
		}
		if got, want := ps.Modeled+ps.OverlapSaved, d.Time(prof); got != want {
			t.Errorf("phase %s: Modeled %v + OverlapSaved %v = %v, want the priced meter delta %v",
				name, ps.Modeled, ps.OverlapSaved, got, want)
		}
		saved += ps.OverlapSaved
	}
	if sortPhase, _ := four.PhaseByName(PhaseSort); sortPhase.OverlapSaved <= 0 {
		t.Errorf("sort phase OverlapSaved = %v, want > 0 (double-buffered passes)", sortPhase.OverlapSaved)
	}
	if four.OverlapSaved <= 0 || four.OverlapRatio <= 0 || four.OverlapRatio >= 1 {
		t.Errorf("OverlapSaved = %v, OverlapRatio = %v, want > 0 and in (0, 1)", four.OverlapSaved, four.OverlapRatio)
	}
	// The run's saving is the ledger's total, each phase's its delta: they
	// agree to the nanosecond truncation of each phase's figure.
	if diff := four.OverlapSaved - saved; diff < -4 || diff > 4 {
		t.Errorf("phases saved %v in total, the run %v", saved, four.OverlapSaved)
	}
}

// The trace must carry per-stream async spans so the
// overlap is visible in the timeline view, and the stream-op counter must
// tick.
func TestStreamsTraceSpans(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)
	cfg := smallConfig(t)
	observer, tr, reg := fullObserver(nil)
	cfg.Obs = observer
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(reads); err != nil {
		t.Fatal(err)
	}
	streamsSeen := map[string]bool{}
	for _, e := range tr.Events() {
		if e.Cat == "stream" && e.Phase == "b" {
			if s, ok := e.Args["stream"].(string); ok {
				streamsSeen[s] = true
			}
		}
	}
	for _, want := range []string{"sort-io", "reduce-io"} {
		if !streamsSeen[want] {
			t.Errorf("trace has no async spans for stream %q (saw %v)", want, streamsSeen)
		}
	}
	if ops := reg.Snapshot().Counters["gpu.stream_ops"]; ops <= 0 {
		t.Errorf("gpu.stream_ops = %d, want > 0", ops)
	}
}
