package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// TestNilSafety drives every chained call form the pipeline uses through a
// nil observer: none may panic, and none may allocate observable state.
func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Log().Info("into the void", "k", 1)
	o.Log().Debug("still nothing")
	o.Tracer().Instant(Track{}, "cat", "nope", nil)
	o.Tracer().NameProcess(0, "x")
	o.Tracer().NameThread(Track{}, "x")
	o.Tracer().Async(0, "c", "n", time.Now(), time.Millisecond, nil)
	span := o.Tracer().Begin(Track{}, "cat", "span")
	span.Metered(costmodel.NewMeter(), costmodel.Profile{}).Arg("k", "v").End()
	if evs := o.Tracer().Events(); evs != nil {
		t.Errorf("nil tracer returned events: %v", evs)
	}
	if err := o.Tracer().WriteJSON(io.Discard); err != nil {
		t.Errorf("nil tracer WriteJSON: %v", err)
	}
	o.Metrics().Counter("c").Add(5)
	o.Metrics().Gauge("g").Set(5)
	o.Metrics().Histogram("h", 1, 2).Observe(1.5)
	snap := o.Metrics().Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	// An observer with all-nil channels behaves identically.
	empty := New(nil, nil, nil)
	empty.Log().Warn("discarded")
	empty.Tracer().Begin(Track{}, "c", "s").End()
	empty.Metrics().Counter("c").Add(1)
	// Metered on a nil meter must not arm the delta machinery.
	tr := NewTracer()
	tr.Begin(Track{}, "c", "s").Metered(nil, costmodel.Profile{}).End()
	for _, e := range tr.Events() {
		if _, ok := e.Args["counters"]; ok {
			t.Error("span Metered(nil meter) attached counters")
		}
	}
}

func TestLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelWarn, false)
	log.Debug("hidden")
	log.Info("hidden too")
	log.Warn("visible", "stage", "Map")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("warn-level logger emitted sub-warn lines: %q", out)
	}
	if !strings.Contains(out, "visible") || !strings.Contains(out, "stage=Map") {
		t.Errorf("warn line missing or unstructured: %q", out)
	}

	buf.Reset()
	jlog := NewLogger(&buf, slog.LevelDebug, true)
	jlog.Debug("dbg", "worker", 3)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line is not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "dbg" || rec["worker"] != float64(3) {
		t.Errorf("json log record = %v", rec)
	}
}

func TestTracerEventsAndOrdering(t *testing.T) {
	tr := NewTracer()
	tr.Instant(Track{Pid: 2, Tid: 0}, "marker", "cached: Map", map[string]any{"artifacts": 4})
	tr.NameProcess(2, "node02") // metadata added after events must still sort first
	tr.NameThread(Track{Pid: 2, Tid: 1}, "worker 0")
	start := time.Now().Add(-2 * time.Millisecond)
	tr.Complete(Track{Pid: 2, Tid: 0}, "stage", "Sort", start, 2*time.Millisecond, nil)
	tr.Async(2, "kernel", "launch", start, time.Millisecond, map[string]any{"blocks": 7})

	evs := tr.Events()
	if len(evs) != 6 { // instant + 2 metadata + complete + async b/e
		t.Fatalf("got %d events, want 6: %+v", len(evs), evs)
	}
	if evs[0].Phase != "M" || evs[1].Phase != "M" {
		t.Errorf("metadata events must sort first, got phases %s %s", evs[0].Phase, evs[1].Phase)
	}
	var sawInstant, sawComplete bool
	var asyncB, asyncE *Event
	for i := range evs {
		e := &evs[i]
		switch e.Phase {
		case "i":
			sawInstant = true
			if e.Scope != "t" {
				t.Errorf("instant scope = %q, want t", e.Scope)
			}
		case "X":
			sawComplete = true
			if e.Dur < 1 {
				t.Errorf("complete dur = %d, want >= 1us", e.Dur)
			}
		case "b":
			asyncB = e
		case "e":
			asyncE = e
		}
	}
	if !sawInstant || !sawComplete {
		t.Error("missing instant or complete event")
	}
	if asyncB == nil || asyncE == nil {
		t.Fatal("missing async begin/end pair")
	}
	if asyncB.ID == "" || asyncB.ID != asyncE.ID {
		t.Errorf("async pair IDs mismatched: %q vs %q", asyncB.ID, asyncE.ID)
	}
	if asyncE.TS < asyncB.TS {
		t.Errorf("async end ts %d before begin ts %d", asyncE.TS, asyncB.TS)
	}
}

// TestCompleteMinimumDuration: sub-microsecond spans are clamped so the
// viewer never drops them.
func TestCompleteMinimumDuration(t *testing.T) {
	tr := NewTracer()
	tr.Complete(Track{}, "stage", "tiny", time.Now(), 0, nil)
	if d := tr.Events()[0].Dur; d != 1 {
		t.Errorf("zero-duration complete dur = %d, want clamped 1", d)
	}
}

func TestSpanMeteredDelta(t *testing.T) {
	m := costmodel.NewMeter()
	m.AddDiskRead(100) // pre-span work must not leak into the delta
	prof := costmodel.Profile{DiskReadBps: 10, DiskWriteBps: 5}
	tr := NewTracer()
	span := tr.Begin(Track{Pid: 1, Tid: 2}, "stage", "Map").Metered(m, prof).Arg("reads", 42)
	m.AddDiskRead(50)
	m.AddDiskWrite(20)
	span.End()

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Cat != "stage" || e.Name != "Map" || e.Pid != 1 || e.Tid != 2 {
		t.Errorf("span event fields: %+v", e)
	}
	if e.Args["reads"] != 42 {
		t.Errorf("span arg reads = %v", e.Args["reads"])
	}
	delta, ok := e.Args["counters"].(costmodel.Counters)
	if !ok {
		t.Fatalf("span counters arg has type %T", e.Args["counters"])
	}
	if delta.DiskReadBytes != 50 || delta.DiskWriteBytes != 20 {
		t.Errorf("span delta = %+v, want disk read 50 / write 20", delta)
	}
	bd, ok := e.Args["modeled"].(costmodel.Breakdown)
	if !ok {
		t.Fatalf("span modeled arg has type %T", e.Args["modeled"])
	}
	if bd.DiskReadSec != 5 || bd.DiskWriteSec != 4 {
		t.Errorf("span breakdown = %+v, want 5s read / 4s write", bd)
	}
}

// TestWriteJSONShape writes a trace file and re-parses it as generic JSON,
// asserting the Chrome trace-event object form Perfetto expects.
func TestWriteJSONShape(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(0, "lasagna")
	sp := tr.Begin(Track{}, "run", "assemble")
	tr.Begin(Track{}, "stage", "Map").End()
	sp.End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if _, ok := e["ph"].(string); !ok {
			t.Errorf("event missing ph: %v", e)
		}
		if _, ok := e["name"].(string); !ok {
			t.Errorf("event missing name: %v", e)
		}
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Begin(Track{Tid: int64(w)}, "partition", "work").End()
				tr.Async(0, "kernel", "launch", time.Now(), time.Microsecond, nil)
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != 8*50*3 { // one X + one b + one e per iteration
		t.Errorf("got %d events, want %d", len(evs), 8*50*3)
	}
	ids := map[string]int{}
	for _, e := range evs {
		if e.Phase == "b" || e.Phase == "e" {
			ids[e.ID]++
		}
	}
	for id, n := range ids {
		if n != 2 {
			t.Errorf("async id %s appears %d times, want 2", id, n)
		}
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter not get-or-create")
	}
	r.Counter("c").Add(3)
	r.Counter("c").Add(4)
	if v := r.Counter("c").Value(); v != 7 {
		t.Errorf("counter = %d, want 7", v)
	}
	r.Gauge("g").Set(9)
	r.Gauge("g").Set(2)
	if v := r.Gauge("g").Value(); v != 2 {
		t.Errorf("gauge = %d, want 2", v)
	}
	// First registration wins: later conflicting bounds are ignored.
	h1 := r.Histogram("h", 1, 10)
	h2 := r.Histogram("h", 5000)
	if h1 != h2 {
		t.Error("Histogram not get-or-create")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 10, 1) // unsorted on purpose; registry sorts
	for _, v := range []float64{0.5, 1, 1.0001, 10, 11, 1e9} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	if snap.Count != 6 {
		t.Errorf("count = %d, want 6", snap.Count)
	}
	wantSum := 0.5 + 1 + 1.0001 + 10 + 11 + 1e9
	if math.Abs(snap.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", snap.Sum, wantSum)
	}
	if len(snap.Buckets) != 3 {
		t.Fatalf("got %d buckets, want 3", len(snap.Buckets))
	}
	// Bounds are inclusive upper bounds: 1 lands in the first bucket,
	// 10 in the second, everything beyond in the overflow.
	wantCounts := []int64{2, 2, 2}
	for i, b := range snap.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(float64(snap.Buckets[2].Le), 1) {
		t.Errorf("overflow bucket Le = %v, want +Inf", snap.Buckets[2].Le)
	}
}

// TestSnapshotJSON: the snapshot must marshal (notably the +Inf overflow
// bound, which raw float64 JSON cannot express) and round-trip its counts.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.pairs").Add(12)
	r.Gauge("core.partitions").Set(3)
	r.Histogram("overlap.length", 64, 128).Observe(100)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"+Inf"`) {
		t.Errorf("snapshot JSON missing +Inf overflow bound: %s", raw)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not re-parse: %v", err)
	}
	counters := back["counters"].(map[string]any)
	if counters["core.pairs"] != float64(12) {
		t.Errorf("round-tripped counter = %v", counters["core.pairs"])
	}
}

func TestJSONFloatInfinities(t *testing.T) {
	cases := []struct {
		in   jsonFloat
		want string
	}{
		{jsonFloat(math.Inf(1)), `"+Inf"`},
		{jsonFloat(math.Inf(-1)), `"-Inf"`},
		{jsonFloat(2.5), `2.5`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("jsonFloat(%v) = %s, want %s", float64(c.in), got, c.want)
		}
		var back jsonFloat
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("jsonFloat unmarshal %s: %v", got, err)
		}
		if float64(back) != float64(c.in) {
			t.Errorf("jsonFloat round-trip %s = %v, want %v", got, float64(back), float64(c.in))
		}
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits").Add(41)
	srv, err := NewDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(string(body), "\ntest_hits 41\n") {
		t.Errorf("/metrics does not serve test_hits 41:\n%s", body)
	}
	// /metrics is the registry's only rendering.
	for _, path := range []string{"/debug/vars", "/debug/metrics"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, code)
		}
	}

	code, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}

	// A second live server serves its own registry, not the first one's.
	reg2 := NewRegistry()
	reg2.Counter("test.hits").Add(7)
	srv2, err := NewDebugServer("127.0.0.1:0", reg2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\ntest_hits 7\n") {
		t.Errorf("second server does not serve test_hits 7:\n%s", body)
	}
}
