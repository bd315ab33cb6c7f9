package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestSubmitGraphBackendSpmat runs a job under the spmat engine over
// HTTP and pins its FASTA against a direct core run with the same
// backend.
func TestSubmitGraphBackendSpmat(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, reads := testFastq(t, 1401)

	cfg := core.DefaultConfig(t.TempDir())
	cfg.HostBlockPairs = scfg.HostBlockPairs
	cfg.DeviceBlockPairs = scfg.DeviceBlockPairs
	cfg.MapBatchReads = scfg.MapBatchReads
	cfg.MinOverlap = 31
	cfg.Workers = 1
	cfg.GPU = scfg.GPU
	cfg.GraphBackend = core.BackendSpmat
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}

	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&graph-backend=spmat&name=spmat")
	if rec.Params.GraphBackend != core.BackendSpmat {
		t.Fatalf("recorded backend = %q, want %q", rec.Params.GraphBackend, core.BackendSpmat)
	}
	final := pollJob(t, ts.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	got := fetchResult(t, ts.URL, final.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("spmat job FASTA differs from direct spmat assembly (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestSubmitGraphBackendSuccinct runs a job under the succinct engine
// over HTTP and pins its FASTA against a direct core run with the same
// backend.
func TestSubmitGraphBackendSuccinct(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, reads := testFastq(t, 1403)

	cfg := core.DefaultConfig(t.TempDir())
	cfg.HostBlockPairs = scfg.HostBlockPairs
	cfg.DeviceBlockPairs = scfg.DeviceBlockPairs
	cfg.MapBatchReads = scfg.MapBatchReads
	cfg.MinOverlap = 31
	cfg.Workers = 1
	cfg.GPU = scfg.GPU
	cfg.GraphBackend = core.BackendSuccinct
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}

	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&graph-backend=succinct&name=succinct")
	if rec.Params.GraphBackend != core.BackendSuccinct {
		t.Fatalf("recorded backend = %q, want %q", rec.Params.GraphBackend, core.BackendSuccinct)
	}
	final := pollJob(t, ts.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	got := fetchResult(t, ts.URL, final.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("succinct job FASTA differs from direct succinct assembly (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestSubmitHostAdmission pins the host-side admission gate: a server
// with a tiny modeled host budget rejects the job with 422 and an error
// naming the backend's maximum job size, while /healthz advertises the
// per-backend envelope.
func TestSubmitHostAdmission(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.HostMemBytes = 1 << 10
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, _ := testFastq(t, 1404)
	resp, err := http.Post(ts.URL+"/v1/jobs?graph-backend=succinct", "application/octet-stream", bytes.NewReader(fq))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submit: status %d, want %d: %s",
			resp.StatusCode, http.StatusUnprocessableEntity, msg)
	}
	if !bytes.Contains(msg, []byte("host footprint")) || !bytes.Contains(msg, []byte("succinct")) {
		t.Errorf("422 body does not explain the host admission failure: %s", msg)
	}

	var health struct {
		Admission struct {
			HostMemBytes       int64          `json:"hostMemBytes"`
			ReferenceReadLen   int            `json:"referenceReadLen"`
			MaxReadsPerBackend map[string]int `json:"maxReadsPerBackend"`
		} `json:"admission"`
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	adm := health.Admission
	if adm.HostMemBytes != scfg.HostMemBytes {
		t.Errorf("advertised budget %d, want %d", adm.HostMemBytes, scfg.HostMemBytes)
	}
	if adm.ReferenceReadLen != admissionReadLen {
		t.Errorf("advertised read length %d, want %d", adm.ReferenceReadLen, admissionReadLen)
	}
	if len(adm.MaxReadsPerBackend) != len(core.Backends) {
		t.Fatalf("admission lists %d backends, want %d: %v",
			len(adm.MaxReadsPerBackend), len(core.Backends), adm.MaxReadsPerBackend)
	}
	// Denser representations admit fewer reads under the same budget.
	gr, su, sp := adm.MaxReadsPerBackend[core.BackendGreedy],
		adm.MaxReadsPerBackend[core.BackendSuccinct],
		adm.MaxReadsPerBackend[core.BackendSpmat]
	if !(gr >= su && su >= sp) {
		t.Errorf("admission ordering greedy=%d succinct=%d spmat=%d, want non-increasing",
			gr, su, sp)
	}
}

// TestLegacyFullGraphRecordFails: a server restarted over jobs recorded
// under the removed "full" backend — spelt graphBackend "full", or
// "fullGraph": true from when the full graph was a flag of its own —
// fails each of them with an error naming spmat instead of running it
// under another engine, and still runs a greedy job from the same store.
func TestLegacyFullGraphRecordFails(t *testing.T) {
	root := t.TempDir()
	fq, reads := testFastq(t, 1406)
	params := Params{MinOverlap: 31, Workers: 1}

	scfg := testServerConfig(root)
	scfg.MaxConcurrent = 1
	want := directFasta(t, scfg, params, reads)
	mapCommitted := make(chan struct{})
	var once sync.Once
	scfg.StageCommitHook = func(ctx context.Context, id string, stage core.PhaseName) error {
		once.Do(func() { close(mapCommitted) })
		<-ctx.Done() // crash after the first job's Map; the others stay queued
		return ctx.Err()
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitJob(t, ts.URL, fq, "?lmin=31&workers=1").ID)
	}
	<-mapCommitted
	srv.Kill()
	ts.Close()

	// Rewrite two records the way older servers spelt a full-graph job.
	rewrite := func(id string, edit func(params map[string]any)) {
		path := filepath.Join(srv.Store().JobDir(id), recordFile)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		edit(doc["params"].(map[string]any))
		if raw, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(ids[1], func(p map[string]any) { p["graphBackend"] = "full" })
	rewrite(ids[2], func(p map[string]any) { p["fullGraph"] = true })
	for _, id := range ids[1:] {
		loaded, err := srv.Store().Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Params.GraphBackend != "full" {
			t.Fatalf("legacy record %s loads with graphBackend %q, want \"full\"", id, loaded.Params.GraphBackend)
		}
	}

	scfg2 := testServerConfig(root)
	scfg2.MaxConcurrent = 1
	srv2, err := New(scfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if final := pollJob(t, ts2.URL, ids[0]); final.State != StateSucceeded {
		t.Errorf("recovered greedy job finished %s: %s", final.State, final.Error)
	} else if got := fetchResult(t, ts2.URL, final.ID); !bytes.Equal(got, want) {
		t.Errorf("recovered greedy job FASTA differs from a cold run (%d vs %d bytes)", len(got), len(want))
	}
	for _, id := range ids[1:] {
		final := pollJob(t, ts2.URL, id)
		if final.State != StateFailed || !strings.Contains(final.Error, core.BackendSpmat) {
			t.Errorf("recovered full-graph job %s finished %s (%q), want failed naming %s",
				id, final.State, final.Error, core.BackendSpmat)
		}
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitGraphBackendValidation rejects malformed backend submissions
// before a job record is ever created: fullgraph is no longer a submit
// key, and full no longer a backend.
func TestSubmitGraphBackendValidation(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, _ := testFastq(t, 1402)
	for _, query := range []string{
		"?graph-backend=bogus",
		"?graph-backend=full",
		"?graph-backend=spmat&fullgraph=true",
		"?graph-backend=succinct&fullgraph=true",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/octet-stream", bytes.NewReader(fq))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want %d", query, resp.StatusCode, http.StatusBadRequest)
		}
	}
}
