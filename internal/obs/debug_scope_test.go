package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestDebugServerPrometheusEndpoint: /metrics serves the text exposition
// with the documented content type and parses back.
func TestDebugServerPrometheusEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("promtest.hits").Add(3)
	srv, err := NewDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypePrometheus {
		t.Errorf("Content-Type = %q, want %q", ct, ContentTypePrometheus)
	}
	body, _ := io.ReadAll(resp.Body)
	types, samples, err := ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if types["promtest_hits"] != "counter" {
		t.Errorf("TYPE promtest_hits = %q, want counter", types["promtest_hits"])
	}
	found := false
	for _, s := range samples {
		if s.Name == "promtest_hits" && s.Value == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("promtest_hits 3 missing from /metrics:\n%s", body)
	}
}
