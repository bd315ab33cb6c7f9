package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/obs"
)

// fullObserver builds an observer with every channel live: a debug-level
// text logger into logBuf (may be nil for discard), a tracer, a registry.
func fullObserver(logBuf *bytes.Buffer) (*obs.Observer, *obs.Tracer, *obs.Registry) {
	var w io.Writer = io.Discard
	if logBuf != nil {
		w = logBuf
	}
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	return obs.New(obs.NewLogger(w, slog.LevelDebug, false), tr, reg), tr, reg
}

// TestTraceSpanTreeAndSumConsistency runs an instrumented assembly and
// checks the trace's structure: the run span encloses serial stage spans
// whose counter deltas sum exactly to the run's final meter snapshot,
// partition spans land on worker lanes, and device events appear as async
// pairs. This is the invariant that makes the trace trustworthy for
// attribution — no metered byte escapes the stage spans.
func TestTraceSpanTreeAndSumConsistency(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)
	cfg := smallConfig(t)
	cfg.Workers = 2
	observer, tr, reg := fullObserver(nil)
	cfg.Obs = observer
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.AssembleContext(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}

	evs := tr.Events()
	var runSpans, partitionSpans int
	stageDeltas := map[string]costmodel.Counters{}
	asyncPhases := map[string]int{}
	names := map[string]bool{}
	for _, e := range evs {
		switch {
		case e.Phase == "M":
			if n, ok := e.Args["name"].(string); ok {
				names[n] = true
			}
		case e.Phase == "X" && e.Cat == "run":
			runSpans++
			if e.Name != "assemble" || e.Pid != 0 || e.Tid != 0 {
				t.Errorf("run span = %+v, want assemble on pid 0 tid 0", e)
			}
		case e.Phase == "X" && e.Cat == "stage":
			if e.Tid != 0 {
				t.Errorf("stage span %s on tid %d, want driver lane 0", e.Name, e.Tid)
			}
			d, ok := e.Args["counters"].(costmodel.Counters)
			if !ok {
				t.Fatalf("stage span %s missing counters delta: %v", e.Name, e.Args)
			}
			if _, ok := e.Args["modeled"].(costmodel.Breakdown); !ok {
				t.Fatalf("stage span %s missing modeled breakdown", e.Name)
			}
			stageDeltas[e.Name] = d
		case e.Phase == "X" && e.Cat == "partition":
			partitionSpans++
			if e.Tid < 1 {
				t.Errorf("partition span %q on tid %d, want a worker lane >= 1", e.Name, e.Tid)
			}
		case e.Phase == "b" || e.Phase == "e":
			asyncPhases[e.Phase]++
		}
	}
	if runSpans != 1 {
		t.Errorf("got %d run spans, want 1", runSpans)
	}
	for _, stage := range []string{"Map", "Sort", "Reduce", "Compress"} {
		if _, ok := stageDeltas[stage]; !ok {
			t.Errorf("missing stage span %s", stage)
		}
	}
	if partitionSpans == 0 {
		t.Error("no partition spans on worker lanes")
	}
	if asyncPhases["b"] == 0 || asyncPhases["b"] != asyncPhases["e"] {
		t.Errorf("async events unbalanced: %d begins, %d ends", asyncPhases["b"], asyncPhases["e"])
	}
	for _, n := range []string{"lasagna", "stages", "worker 0", "worker 1"} {
		if !names[n] {
			t.Errorf("missing track name %q", n)
		}
	}

	// Sum-consistency: stage deltas sum to the final meter snapshot, which
	// is also what Result carries.
	var sum costmodel.Counters
	for _, d := range stageDeltas {
		sum = sum.Add(d)
	}
	final := p.Meter().Snapshot()
	if sum != final {
		t.Errorf("stage deltas sum %+v != final meter %+v", sum, final)
	}
	if res.Counters != final {
		t.Errorf("res.Counters %+v != final meter %+v", res.Counters, final)
	}
	if got, want := res.Modeled, final.Breakdown(cfg.Profile()); got != want {
		t.Errorf("res.Modeled %+v != breakdown of final meter %+v", got, want)
	}

	// The registry saw the pipeline's instruments.
	snap := reg.Snapshot()
	if got := snap.Gauges["core.partitions"]; got != int64(res.Partitions) {
		t.Errorf("core.partitions gauge = %d, want %d", got, res.Partitions)
	}
	if got := snap.Histograms["core.partition_pairs"].Count; got != int64(res.Partitions) {
		t.Errorf("partition_pairs observations = %d, want %d", got, res.Partitions)
	}
	if got := snap.Counters["overlap.candidates"]; got != res.CandidateEdges {
		t.Errorf("overlap.candidates = %d, want %d", got, res.CandidateEdges)
	}
	if snap.Counters["extsort.sorts"] == 0 {
		t.Error("extsort.sorts counter never incremented")
	}
	if snap.Counters["gpu.kernel_launches"] == 0 {
		t.Error("gpu.kernel_launches counter never incremented")
	}

	// The trace serializes to valid JSON.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
}

// TestObservabilityOffByDefault: a fully instrumented run must write
// byte-identical contigs and meter byte-identical costs versus the
// nil-observer default.
func TestObservabilityOffByDefault(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)

	run := func(o *obs.Observer) (*Result, []byte) {
		t.Helper()
		cfg := smallConfig(t)
		cfg.Workers = 2
		cfg.Obs = o
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.AssembleContext(context.Background(), reads)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(res.ContigPath)
		if err != nil {
			t.Fatal(err)
		}
		return res, raw
	}

	base, baseContigs := run(nil)
	observer, _, _ := fullObserver(nil)
	inst, instContigs := run(observer)

	if !bytes.Equal(baseContigs, instContigs) {
		t.Error("instrumented run wrote different contig bytes")
	}
	if base.Counters != inst.Counters {
		t.Errorf("instrumented run metered different costs: %+v vs %+v",
			base.Counters, inst.Counters)
	}
	if base.TotalModeled != inst.TotalModeled {
		t.Errorf("instrumented run modeled %v, baseline %v", inst.TotalModeled, base.TotalModeled)
	}
}

// TestResumeTraceCachedMarkers: a resumed run's trace shows instant
// markers where the cached stages' spans would be, its log names the
// resume decision and each skipped stage, and the manifest carries the
// metrics snapshot of the last commit.
func TestResumeTraceCachedMarkers(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)
	cfg := smallConfig(t)
	cfg.Resume = true
	errCrash := errors.New("injected crash")

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.FaultHook = func(stage PhaseName) error {
		if stage == PhaseSort {
			return errCrash
		}
		return nil
	}
	if _, err := p.AssembleContext(context.Background(), reads); !errors.Is(err, errCrash) {
		t.Fatalf("first run err = %v, want injected crash", err)
	}

	var logBuf bytes.Buffer
	observer, tr, _ := fullObserver(&logBuf)
	cfg.Obs = observer
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.AssembleContext(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.CachedStages, ","); got != "Map,Sort" {
		t.Fatalf("CachedStages = %q, want Map,Sort", got)
	}

	markers := map[string]bool{}
	freshStages := map[string]bool{}
	for _, e := range tr.Events() {
		if e.Phase == "i" && e.Cat == "marker" {
			markers[e.Name] = true
		}
		if e.Phase == "X" && e.Cat == "stage" {
			freshStages[e.Name] = true
		}
	}
	for _, want := range []string{"cached: Map", "cached: Sort"} {
		if !markers[want] {
			t.Errorf("trace missing marker %q (have %v)", want, markers)
		}
	}
	if freshStages["Map"] || freshStages["Sort"] {
		t.Errorf("cached stages also traced as fresh spans: %v", freshStages)
	}
	if !freshStages["Reduce"] || !freshStages["Compress"] {
		t.Errorf("fresh stages missing spans: %v", freshStages)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "resume plan") ||
		!strings.Contains(logs, "manifest valid, replaying 2 committed stage(s)") {
		t.Errorf("log missing resume decision: %s", logs)
	}
	if strings.Count(logs, "stage skipped (cached)") != 2 {
		t.Errorf("log should name 2 skipped stages: %s", logs)
	}

	// The manifest persists the metrics snapshot of the last commit.
	raw, err := os.ReadFile(filepath.Join(cfg.Workspace, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Metrics *obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Metrics == nil || len(m.Metrics.Counters) == 0 {
		t.Error("manifest missing metrics snapshot after instrumented commit")
	}
}

// TestDebugServerMidRun starts the debug endpoint, then probes it from a
// stage-commit hook while the pipeline is mid-run: the Prometheus
// exposition and pprof must both answer.
func TestDebugServerMidRun(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 10)
	cfg := smallConfig(t)
	observer, _, reg := fullObserver(nil)
	cfg.Obs = observer
	srv, err := obs.NewDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		path string
		code int
		body []byte
	}
	var probes []probe
	p.FaultHook = func(stage PhaseName) error {
		if stage != PhaseMap {
			return nil
		}
		for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
			resp, err := http.Get("http://" + srv.Addr() + path)
			if err != nil {
				t.Errorf("GET %s mid-run: %v", path, err)
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			probes = append(probes, probe{path, resp.StatusCode, body})
		}
		return nil
	}
	if _, err := p.AssembleContext(context.Background(), reads); err != nil {
		t.Fatal(err)
	}
	if len(probes) != 2 {
		t.Fatalf("made %d probes, want 2", len(probes))
	}
	for _, pr := range probes {
		if pr.code != http.StatusOK {
			t.Errorf("%s mid-run status %d", pr.path, pr.code)
		}
	}
	launches := regexp.MustCompile(`(?m)^gpu_kernel_launches ([0-9]+)$`).FindSubmatch(probes[0].body)
	if launches == nil || string(launches[1]) == "0" {
		t.Errorf("mid-run /metrics shows no kernel launches after Map:\n%s", probes[0].body)
	}
}
