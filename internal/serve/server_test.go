package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/readsim"
)

// testServerConfig sizes a server for the small synthetic datasets the
// tests use: tiny blocks keep runs fast and device demands small.
func testServerConfig(root string) Config {
	return Config{
		Root:             root,
		GPU:              gpu.K40,
		QueueCap:         16,
		MaxConcurrent:    4,
		HostBlockPairs:   1 << 12,
		DeviceBlockPairs: 1 << 10,
		MapBatchReads:    512,
		Obs:              obs.New(nil, nil, obs.NewRegistry()),
	}
}

// testFastq simulates a small dataset and returns it serialized as FASTQ
// alongside the parsed read set.
func testFastq(t testing.TB, seed int64) ([]byte, *dna.ReadSet) {
	t.Helper()
	genome := readsim.Genome(readsim.GenomeParams{Length: 2500, Seed: seed})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 64, Coverage: 10, Seed: seed + 1})
	var buf bytes.Buffer
	w := fastq.NewFastqWriter(&buf)
	for i := 0; i < reads.NumReads(); i++ {
		if err := w.Write(fastq.Record{Name: fmt.Sprintf("r%d", i), Seq: reads.Read(uint32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), reads
}

// directFasta assembles the reads through the core pipeline directly,
// mirroring the server's per-job configuration, and returns the FASTA
// bytes — the golden output every HTTP job must match byte for byte.
func directFasta(t *testing.T, scfg Config, params Params, reads *dna.ReadSet) []byte {
	t.Helper()
	ws := t.TempDir()
	cfg := core.DefaultConfig(ws)
	cfg.HostBlockPairs = scfg.HostBlockPairs
	cfg.DeviceBlockPairs = scfg.DeviceBlockPairs
	cfg.MapBatchReads = scfg.MapBatchReads
	cfg.MinOverlap = params.MinOverlap
	cfg.Workers = params.Workers
	cfg.GraphBackend = params.GraphBackend
	cfg.GPU = scfg.GPU
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submitJob POSTs a FASTQ body and returns the created record.
func submitJob(t *testing.T, baseURL string, body []byte, query string) Record {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, msg)
	}
	var rec Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// pollJob polls the job until it reaches a terminal state.
func pollJob(t *testing.T, baseURL, id string) Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			return rec
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Record{}
}

// waitGone polls until the path no longer exists.
func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("%s still exists; terminal cleanup never ran", path)
}

// fetchResult GETs the job's FASTA.
func fetchResult(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("result: status %d: %s", resp.StatusCode, msg)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerE2E drives the full HTTP surface: N concurrent submissions
// all assemble to output byte-identical with a direct core run, jobs list
// and report per-stage progress, and terminal workspaces are cleaned.
func TestServerE2E(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, reads := testFastq(t, 1201)
	params := Params{MinOverlap: 31, Workers: 1}
	want := directFasta(t, scfg, params, reads)

	const n = 4
	recs := make([]Record, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = submitJob(t, ts.URL, fq, fmt.Sprintf("?lmin=31&workers=1&name=e2e-%d", i))
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		final := pollJob(t, ts.URL, recs[i].ID)
		if final.State != StateSucceeded {
			t.Fatalf("job %s finished %s: %s", final.ID, final.State, final.Error)
		}
		if final.Result == nil || final.Result.NumContigs == 0 {
			t.Fatalf("job %s has no result summary", final.ID)
		}
		if len(final.StagesDone) < 4 {
			t.Errorf("job %s reported stages %v, want all four", final.ID, final.StagesDone)
		}
		got := fetchResult(t, ts.URL, final.ID)
		if !bytes.Equal(got, want) {
			t.Errorf("job %s FASTA differs from direct assembly (%d vs %d bytes)",
				final.ID, len(got), len(want))
		}
		// Terminal jobs must not pin their workspace or input. Cleanup runs
		// on the transition hook just after the state becomes visible, so
		// allow it a moment to land.
		waitGone(t, srv.Store().WorkDir(final.ID))
		waitGone(t, srv.Store().InputPath(final.ID))
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []Record `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != n {
		t.Errorf("listing has %d jobs, want %d", len(listing.Jobs), n)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerKillAndRestart crashes the server right after a job commits
// its Sort stage and checks the restarted server resumes the job through
// the run manifest to output byte-identical with a direct run. A second
// job, queued behind the first at the crash, has its record rewritten
// with a "tenant" param, a key of records written while tenant caps were
// a scheduler feature: it still loads, runs and matches.
func TestServerKillAndRestart(t *testing.T) {
	root := t.TempDir()
	fq, reads := testFastq(t, 3301)
	params := Params{MinOverlap: 31, Workers: 1}

	scfg := testServerConfig(root)
	scfg.MaxConcurrent = 1
	want := directFasta(t, scfg, params, reads)

	sortCommitted := make(chan struct{})
	var once sync.Once
	scfg.StageCommitHook = func(ctx context.Context, id string, stage core.PhaseName) error {
		if stage == core.PhaseSort {
			once.Do(func() { close(sortCommitted) })
			// Hold the job here until Kill cancels its context, so the
			// crash deterministically lands between Sort and Reduce.
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&name=crashy")
	<-sortCommitted
	queued := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&name=queued")
	srv.Kill()
	ts.Close()

	if onDisk, err := srv.Store().Load(queued.ID); err != nil || onDisk.State != StateQueued {
		t.Fatalf("second job on disk after crash: %s, %v; want queued", onDisk.State, err)
	}
	path := srv.Store().recordPath(queued.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["params"].(map[string]any)["tenant"] = "lab1"
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The crash must leave the on-disk record mid-run, exactly as SIGKILL
	// would: still running, Sort committed, workspace and manifest intact.
	onDisk, err := srv.Store().Load(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("on-disk state after crash = %s, want running", onDisk.State)
	}
	if _, err := os.Stat(filepath.Join(srv.Store().WorkDir(rec.ID), "manifest.json")); err != nil {
		t.Fatalf("run manifest missing after crash: %v", err)
	}

	// Restart on the same root, without the fault hook: recovery re-queues
	// the job and the manifest replays Map and Sort.
	scfg2 := testServerConfig(root)
	scfg2.MaxConcurrent = 1
	srv2, err := New(scfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	final := pollJob(t, ts2.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("recovered job finished %s: %s", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (one per server incarnation)", final.Attempts)
	}
	if len(final.CachedStages) == 0 {
		t.Error("recovered job replayed no stages from the manifest; it re-ran cold")
	}
	got := fetchResult(t, ts2.URL, final.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed FASTA differs from direct assembly (%d vs %d bytes)", len(got), len(want))
	}
	if q := pollJob(t, ts2.URL, queued.ID); q.State != StateSucceeded {
		t.Fatalf("recovered tenant-tagged job finished %s: %s", q.State, q.Error)
	}
	if got := fetchResult(t, ts2.URL, queued.ID); !bytes.Equal(got, want) {
		t.Errorf("tenant-tagged job's FASTA differs from direct assembly (%d vs %d bytes)", len(got), len(want))
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerBackpressureAndMetrics fills the queue behind a deliberately
// stalled job, checks overflow submissions bounce with 429 + Retry-After,
// cancels a queued job over HTTP, and cross-checks the server's metrics
// registry against every observed response.
func TestServerBackpressureAndMetrics(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.QueueCap = 1
	scfg.MaxConcurrent = 1
	release := make(chan struct{})
	var once sync.Once
	blocked := make(chan struct{})
	scfg.StageCommitHook = func(ctx context.Context, id string, stage core.PhaseName) error {
		var hold bool
		once.Do(func() { hold = true })
		if hold {
			close(blocked)
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

	fq, _ := testFastq(t, 5501)
	runner := submitJob(t, ts.URL, fq, "?lmin=31&workers=1")
	<-blocked // the first job is mid-run and holding its slot
	queued := submitJob(t, ts.URL, fq, "?lmin=31&workers=1")

	// The queue (cap 1) is full: further submissions must bounce.
	rejected := 0
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs?lmin=31&workers=1", "application/octet-stream", bytes.NewReader(fq))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow submit %d: status %d, want 429", i, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "2" {
			t.Errorf("429 Retry-After = %q, want \"2\"", got)
		}
		rejected++
	}

	snap := scfg.Obs.Metrics().Snapshot()
	if got := snap.Counters["serve.jobs_rejected"]; got != int64(rejected) {
		t.Errorf("serve.jobs_rejected = %d, want %d (the observed 429s)", got, rejected)
	}
	if got := snap.Counters["serve.jobs_admitted"]; got != 2 {
		t.Errorf("serve.jobs_admitted = %d, want 2", got)
	}
	if got := snap.Gauges["serve.queue_depth"]; got != 1 {
		t.Errorf("serve.queue_depth = %d, want 1", got)
	}
	if got := snap.Gauges["serve.jobs_running"]; got != 1 {
		t.Errorf("serve.jobs_running = %d, want 1", got)
	}

	// Cancel the queued job over HTTP; it must die without ever running.
	resp, err := http.Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued job: status %d", resp.StatusCode)
	}
	if rec := pollJob(t, ts.URL, queued.ID); rec.State != StateCanceled || rec.Attempts != 0 {
		t.Fatalf("queued job ended %s after %d attempts, want canceled after 0", rec.State, rec.Attempts)
	}

	close(release)
	if rec := pollJob(t, ts.URL, runner.ID); rec.State != StateSucceeded {
		t.Fatalf("stalled job finished %s: %s", rec.State, rec.Error)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// createJob lays a job directory out the way an admitted submission
// leaves it: workspace, input, then the record.
func createJob(t *testing.T, st *Store, rec Record, input string) {
	t.Helper()
	in, err := st.CreateJob(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.WriteString(input); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsBadSubmissions covers the submit-time validation
// errors: garbage, malformed, and oversized bodies, empty datasets,
// overlap thresholds no read can meet, and query keys submit does not read.
// No rejection leaves a job directory behind.
func TestServerRejectsBadSubmissions(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.MaxBodyBytes = 1 << 17 // above the parser's 64 KiB read buffer
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body, query string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/octet-stream", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("", ""); got != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", got)
	}
	if got := post("@r1\nACGT\n+\nIIII\n", "?lmin=63"); got != http.StatusUnprocessableEntity {
		t.Errorf("lmin beyond read length: status %d, want 422", got)
	}
	if got := post("@r1\nACGT\n+\nIIII\n", "?lmin=notanumber"); got != http.StatusBadRequest {
		t.Errorf("bad lmin: status %d, want 400", got)
	}
	noJobDirs := func(what string) {
		t.Helper()
		ents, err := os.ReadDir(srv.Store().JobsDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Errorf("%s: %d job directories left behind, want 0", what, len(ents))
		}
	}
	if got := post("@r1\nACGT\nIIII\n", "?lmin=3"); got != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", got)
	}
	noJobDirs("malformed body")
	var big strings.Builder
	for big.Len() <= int(scfg.MaxBodyBytes) {
		fmt.Fprintf(&big, "@r%d\nACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIII\n", big.Len())
	}
	if got := post(big.String(), "?lmin=3"); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", got)
	}
	noJobDirs("oversized body")
	// Size wins over a parse error the parser hits long before the limit.
	if got := post("@r1\nACGT\nIIII\n"+big.String(), "?lmin=3"); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body malformed early: status %d, want 413", got)
	}
	noJobDirs("oversized body malformed early")
	// A retired or misspelt knob is refused by name instead of silently
	// assembling greedy.
	for _, key := range []string{"fullgraph", "graph_backend", "tenant"} {
		resp, err := http.Post(ts.URL+"/v1/jobs?lmin=3&"+key+"=spmat", "application/octet-stream",
			strings.NewReader("@r1\nACGTACGT\n+\nIIIIIIII\n"))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte(key)) {
			t.Errorf("unknown key %s: status %d, want 400 naming it: %s", key, resp.StatusCode, msg)
		}
	}
	noJobDirs("unknown query keys")
	// Unknown jobs 404 on every per-job route.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	// No orphan directories linger from the rejected submissions.
	noJobDirs("rejected submissions")
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSweep exercises startup cleanup: torn job directories are
// removed and terminal jobs with leftover workspaces get them cleared.
func TestStoreSweep(t *testing.T) {
	root := t.TempDir()
	st, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	// A torn create: directory without a parseable record.
	if err := os.MkdirAll(st.JobDir("torn"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.JobDir("torn"), "job.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A terminal job whose workspace cleanup never ran.
	done := Record{ID: "done", State: StateSucceeded, SubmittedAt: time.Now().UTC()}
	createJob(t, st, done, "@r\nACGT\n+\nIIII\n")

	swept, err := st.Sweep(obs.New(nil, nil, nil).Log())
	if err != nil {
		t.Fatal(err)
	}
	if swept != 2 {
		t.Errorf("Sweep repaired %d directories, want 2", swept)
	}
	if _, err := os.Stat(st.JobDir("torn")); !os.IsNotExist(err) {
		t.Error("torn job directory survived the sweep")
	}
	if _, err := os.Stat(st.WorkDir("done")); !os.IsNotExist(err) {
		t.Error("terminal job workspace survived the sweep")
	}
	if _, err := st.Load("done"); err != nil {
		t.Errorf("terminal record lost by the sweep: %v", err)
	}
}

// TestServerSurvivesEmptyRecord submits a FASTQ with one empty sequence
// line. Map runs in the server's process, so a kernel panic on the empty
// read would take every job down with it; instead the job assembles to
// the FASTA of the same reads without the record, and the server keeps
// answering and running jobs afterwards.
func TestServerSurvivesEmptyRecord(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, reads := testFastq(t, 1301)
	params := Params{MinOverlap: 31, Workers: 1}
	want := directFasta(t, scfg, params, reads)

	// Insert the empty record after the third record (four lines each).
	lines := bytes.SplitAfter(fq, []byte("\n"))
	var withEmpty []byte
	for i, line := range lines {
		if i == 12 {
			withEmpty = append(withEmpty, "@empty\n\n+\n\n"...)
		}
		withEmpty = append(withEmpty, line...)
	}

	rec := submitJob(t, ts.URL, withEmpty, "?lmin=31&workers=1&name=empty-record")
	final := pollJob(t, ts.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job with an empty record finished %s: %s", final.State, final.Error)
	}
	if got := fetchResult(t, ts.URL, final.ID); !bytes.Equal(got, want) {
		t.Errorf("FASTA with an empty record differs from the reads without it (%d vs %d bytes)",
			len(got), len(want))
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the empty-record job: status %d", resp.StatusCode)
	}
	next := pollJob(t, ts.URL, submitJob(t, ts.URL, fq, "?lmin=31&workers=1&name=after").ID)
	if next.State != StateSucceeded {
		t.Fatalf("job after the empty-record job finished %s: %s", next.State, next.Error)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
