package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkServeThroughput pushes b.N small assembly jobs through the
// full HTTP + scheduler + pipeline path and reports end-to-end job
// throughput plus queue latency. Both are wall-clock and host-dependent,
// so they are reported, not gated.
func BenchmarkServeThroughput(b *testing.B) {
	scfg := testServerConfig(b.TempDir())
	scfg.QueueCap = b.N + 1 // measure service time, not rejection
	srv, err := New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, _ := testFastq(b, 9901)
	ids := make([]string, b.N)

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs?lmin=31&workers=1", "application/octet-stream", bytes.NewReader(fq))
		if err != nil {
			b.Fatal(err)
		}
		var rec Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			b.Fatalf("submit %d: status %d, err %v", i, resp.StatusCode, err)
		}
		ids[i] = rec.ID
	}
	var meanWait float64
	for _, id := range ids {
		rec := benchPoll(b, ts.URL, id)
		if rec.State != StateSucceeded {
			b.Fatalf("job %s finished %s: %s", id, rec.State, rec.Error)
		}
		if rec.Result != nil {
			meanWait += rec.Result.QueueWaitMs
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	meanWait /= float64(b.N)
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/s")
	b.ReportMetric(meanWait, "queue-ms/job")

}

// benchPoll waits for the job to finish.
func benchPoll(b *testing.B, baseURL, id string) Record {
	b.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		var rec Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rec.State.Terminal() {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Fatalf("job %s never finished", id)
	return Record{}
}
