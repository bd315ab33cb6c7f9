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
	"slices"
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
	gr, su, fu, sp := adm.MaxReadsPerBackend[core.BackendGreedy],
		adm.MaxReadsPerBackend[core.BackendSuccinct],
		adm.MaxReadsPerBackend[core.BackendFull],
		adm.MaxReadsPerBackend[core.BackendSpmat]
	if !(gr >= su && su >= fu && fu >= sp) {
		t.Errorf("admission ordering greedy=%d succinct=%d full=%d spmat=%d, want non-increasing",
			gr, su, fu, sp)
	}
}

// TestSubmitHostAdmissionFull: the full string graph is budgeted for the
// candidate edges it holds, not as greedy — a job whose greedy footprint
// fits the host budget but whose full-graph footprint does not answers 422
// naming the full backend.
func TestSubmitHostAdmissionFull(t *testing.T) {
	fq, reads := testFastq(t, 1405)
	scfg := testServerConfig(t.TempDir())
	scfg.HostMemBytes = core.GraphHostModel(core.BackendFull, reads.NumReads(), reads.MaxLen()) - 1
	if core.GraphHostModel(core.BackendGreedy, reads.NumReads(), reads.MaxLen()) > scfg.HostMemBytes {
		t.Fatal("the budget does not fit the greedy footprint")
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs?lmin=31&graph-backend=full", "application/octet-stream", bytes.NewReader(fq))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains(msg, []byte(`backend \"full\"`)) {
		t.Fatalf("full-graph submit over its budget: status %d, want 422 naming full: %s", resp.StatusCode, msg)
	}
	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1")
	if final := pollJob(t, ts.URL, rec.ID); final.State != StateSucceeded {
		t.Fatalf("greedy job under the same budget finished %s: %s", final.State, final.Error)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyFullGraphRecordResumes: a job record written while the full
// string graph was its own "fullGraph" flag loads as graphBackend "full",
// and since the config fingerprint is unchanged, a server restarted over a
// crashed full-graph job resumes it from its committed stages to the FASTA
// of a cold full-graph run.
func TestLegacyFullGraphRecordResumes(t *testing.T) {
	root := t.TempDir()
	fq, reads := testFastq(t, 1406)
	params := Params{MinOverlap: 31, Workers: 1, GraphBackend: core.BackendFull}

	scfg := testServerConfig(root)
	scfg.MaxConcurrent = 1
	want := directFasta(t, scfg, params, reads)
	sortCommitted := make(chan struct{})
	var once sync.Once
	scfg.StageCommitHook = func(ctx context.Context, id string, stage core.PhaseName) error {
		if stage == core.PhaseSort {
			once.Do(func() { close(sortCommitted) })
			<-ctx.Done() // crash between Sort and Reduce
			return ctx.Err()
		}
		return nil
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&graph-backend=full")
	<-sortCommitted
	srv.Kill()
	ts.Close()

	// Rewrite the record the way the older server spelt it.
	path := filepath.Join(srv.Store().JobDir(rec.ID), recordFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	p := doc["params"].(map[string]any)
	delete(p, "graphBackend")
	p["fullGraph"] = true
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := srv.Store().Load(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params.GraphBackend != core.BackendFull {
		t.Fatalf("legacy record loads with graphBackend %q, want %q", loaded.Params.GraphBackend, core.BackendFull)
	}

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
		t.Fatalf("resumed legacy job finished %s: %s", final.State, final.Error)
	}
	if !slices.Equal(final.CachedStages, []string{string(core.PhaseMap), string(core.PhaseSort)}) {
		t.Errorf("resumed legacy job replayed %v, want Map and Sort", final.CachedStages)
	}
	if got := fetchResult(t, ts2.URL, final.ID); !bytes.Equal(got, want) {
		t.Errorf("resumed legacy job FASTA differs from a cold full-graph run (%d vs %d bytes)", len(got), len(want))
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitGraphBackendValidation rejects malformed backend submissions
// before a job record is ever created; fullgraph is no longer a submit key.
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
