package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// tokenRun is a controllable RunFunc: each attempt of a job blocks until
// the test sends it a token, drains with ErrPreempted when asked, and
// unwinds on context cancellation.
type tokenRun struct {
	mu sync.Mutex
	ch map[string]chan struct{}
}

func newTokenRun(ids ...string) *tokenRun {
	m := &tokenRun{ch: make(map[string]chan struct{})}
	for _, id := range ids {
		m.ch[id] = make(chan struct{}, 4)
	}
	return m
}

func (m *tokenRun) release(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ch[id] <- struct{}{}
}

func (m *tokenRun) run(ctx context.Context, j *Job) error {
	m.mu.Lock()
	ch := m.ch[j.ID()]
	m.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-j.Preempted():
		return ErrPreempted
	case <-ctx.Done():
		return ctx.Err()
	}
}

// eventTypes projects a job's recorded event history onto its type names.
func eventTypes(evs []obs.LogEvent) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

// TestFlightRecorderLifecycle drives the acceptance scenario at the
// scheduler level: on a heterogeneous two-device fleet, a job waits while
// both devices are busy, is claimed by device 1 when that device frees,
// is preempted there mid-run by an interactive arrival, and resumes on
// device 0. Its event log must reconstruct that lifecycle in order: the
// devices of each attempt, the drain and requeue reasons, the preempted
// gap the second claim closes, and the outcome.
func TestFlightRecorderLifecycle(t *testing.T) {
	rel := newTokenRun("b0", "b1", "v", "i")
	reg := obs.NewRegistry()
	recorder := NewFlightRecorder(128)
	s, err := NewScheduler(SchedulerConfig{
		Fleet:         testFleet(600, 1000),
		QueueCap:      16,
		MaxConcurrent: 1,
		Run:           rel.run,
		Obs:           obs.New(nil, nil, reg),
		Recorder:      recorder,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	// Blockers pin the fleet: b1 fills device 1 (nothing else can host
	// 1000 bytes), then b0 fills device 0.
	b0, b1 := testJob("b0", 600), testJob("b1", 1000)
	if err := s.Submit(b1); err != nil {
		t.Fatal(err)
	}
	waitState(t, b1, StateRunning)
	if err := s.Submit(b0); err != nil {
		t.Fatal(err)
	}
	waitState(t, b0, StateRunning)

	// The victim waits in the fleet queue: no device has a free slot.
	v := testJob("v", 300)
	if err := s.Submit(v); err != nil {
		t.Fatal(err)
	}

	// Freeing device 1 lets the placement pass claim v there.
	rel.release("b1")
	waitState(t, v, StateRunning)
	if devs := v.Record().Devices; len(devs) != 1 || devs[0] != 1 {
		t.Fatalf("victim ran on %v, want [1]", devs)
	}

	// An interactive job that fits only device 1's capacity — and not its
	// current free bytes — forces the victim to drain at its next commit.
	i := testJobP("i", 800, Params{Priority: PriorityInteractive})
	if err := s.Submit(i); err != nil {
		t.Fatal(err)
	}
	waitState(t, v, StateQueued)
	waitState(t, i, StateRunning)

	// Freeing device 0 resumes the victim there: a different device than
	// the preempted attempt.
	rel.release("b0")
	waitState(t, v, StateRunning)
	if devs := v.Record().Devices; len(devs) != 1 || devs[0] != 0 {
		t.Fatalf("resumed victim ran on %v, want [0]", devs)
	}
	rel.release("v")
	waitState(t, v, StateSucceeded)
	rel.release("i")
	waitState(t, i, StateSucceeded)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The persisted event history replays the full lifecycle in order.
	rec := v.Record()
	want := []string{EventEnqueue, EventClaim, EventPreemptRequest,
		EventDrain, EventRequeue, EventClaim, EventTerminal}
	got := eventTypes(rec.Events)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("victim event history = %v, want %v", got, want)
	}
	if rec.TotalEvents != uint64(len(want)) {
		t.Errorf("TotalEvents = %d, want %d", rec.TotalEvents, len(want))
	}
	for k := 1; k < len(rec.Events); k++ {
		if rec.Events[k].Seq <= rec.Events[k-1].Seq {
			t.Errorf("event %d seq %d not after %d", k, rec.Events[k].Seq, rec.Events[k-1].Seq)
		}
	}
	firstClaim, secondClaim := rec.Events[1], rec.Events[5]
	if devs := firstClaim.Attrs["devices"].([]int); len(devs) != 1 || devs[0] != 1 {
		t.Errorf("first claim on %v, want [1]", devs)
	}
	if devs := secondClaim.Attrs["devices"].([]int); len(devs) != 1 || devs[0] != 0 {
		t.Errorf("second claim on %v, want [0]", devs)
	}
	if rec.Events[3].Attrs["reason"] != "preempt" {
		t.Errorf("drain reason = %v, want preempt", rec.Events[3].Attrs["reason"])
	}
	if rec.Events[4].Attrs["reason"] != "preempt" {
		t.Errorf("requeue reason = %v, want preempt", rec.Events[4].Attrs["reason"])
	}
	if _, ok := secondClaim.Attrs["waitMs"].(int64); !ok {
		t.Errorf("second claim attrs = %v, want the preempted gap as waitMs", secondClaim.Attrs)
	}
	if rec.Events[6].Attrs["outcome"] != string(StateSucceeded) {
		t.Errorf("terminal outcome = %v, want succeeded", rec.Events[6].Attrs["outcome"])
	}

	// The global audit log totally orders the victim's events against the
	// other jobs' traffic.
	var lastSeq uint64
	victimEvents := 0
	for _, e := range recorder.Log().Since(0) {
		if e.Seq <= lastSeq {
			t.Fatalf("global log seq %d not increasing after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Job == "v" {
			victimEvents++
		}
	}
	if victimEvents != len(want) {
		t.Errorf("global log has %d victim events, want %d", victimEvents, len(want))
	}
}

// TestServerFlightEndpoints exercises the HTTP surface end to end with a
// real pipeline job that gets preempted and resumed: the per-job events
// endpoint replays the lifecycle, /metrics carries the queue-wait
// histogram, and every response carries an X-Request-Id.
func TestServerFlightEndpoints(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.MaxConcurrent = 1
	fq, _ := testFastq(t, 5521)

	reached := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	scfg.StageCommitHook = func(ctx context.Context, id string, stage core.PhaseName) error {
		if stage == core.PhaseMap && first.CompareAndSwap(true, false) {
			close(reached)
			select {
			case <-release:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&name=flight")
	<-reached
	if err := srv.Scheduler().Preempt(rec.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	final := pollJob(t, ts.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}

	// Events endpoint: lifecycle order with stage commits interleaved.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		t.Error("response missing X-Request-Id")
	}
	var evBody struct {
		Job         string         `json:"job"`
		TotalEvents uint64         `json:"totalEvents"`
		Events      []obs.LogEvent `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&evBody)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if evBody.Job != rec.ID || len(evBody.Events) == 0 {
		t.Fatalf("events body = %+v, want non-empty for %s", evBody, rec.ID)
	}
	var lifecycle []string
	commits := 0
	for _, e := range evBody.Events {
		if e.Type == EventStageCommit {
			commits++
			continue
		}
		lifecycle = append(lifecycle, e.Type)
	}
	wantLifecycle := []string{EventEnqueue, EventClaim, EventPreemptRequest,
		EventDrain, EventRequeue, EventClaim, EventTerminal}
	if fmt.Sprint(lifecycle) != fmt.Sprint(wantLifecycle) {
		t.Errorf("lifecycle events = %v, want %v", lifecycle, wantLifecycle)
	}
	if commits == 0 {
		t.Error("no stage-commit events recorded")
	}

	// /metrics declares the families and carries the queue-wait histogram.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, obs.ContentTypePrometheus)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		"# TYPE serve_jobs_succeeded counter",
		"# TYPE serve_queue_wait_ms histogram",
		"serve_queue_wait_ms_count 2",
	} {
		if !strings.Contains("\n"+string(promBody), "\n"+line+"\n") {
			t.Errorf("/metrics has no line %q:\n%s", line, promBody)
		}
	}

	// Global audit log with ?since= paging.
	resp, err = http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	var global struct {
		Total  uint64         `json:"total"`
		Events []obs.LogEvent `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&global)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if global.Total == 0 || len(global.Events) == 0 {
		t.Fatalf("/debug/events empty: %+v", global)
	}
	mid := global.Events[len(global.Events)/2].Seq
	resp, err = http.Get(fmt.Sprintf("%s/debug/events?since=%d", ts.URL, mid))
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Events []obs.LogEvent `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range page.Events {
		if e.Seq <= mid {
			t.Errorf("?since=%d returned seq %d", mid, e.Seq)
		}
	}

	// /healthz gained build identity and uptime.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Version       string   `json:"version"`
		Revision      string   `json:"revision"`
		UptimeSeconds *float64 `json:"uptimeSeconds"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Version == "" || health.Revision == "" || health.UptimeSeconds == nil {
		t.Errorf("healthz build fields = %+v, want version/revision/uptimeSeconds set", health)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
