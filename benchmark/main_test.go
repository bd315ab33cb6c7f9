package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/dna"
	"repro/internal/quality"
	"repro/internal/readsim"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestDeclarationMatchesTables holds BENCHMARK.json equal to the tables
// the program prints from and -compare takes its bounds from.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var declared []workload
	for _, w := range workloads {
		if w.Undeclared == "" {
			declared = append(declared, w)
		}
	}
	if len(d.Workloads) != len(declared) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(d.Workloads), len(declared))
	}
	for i, w := range declared {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, program %q: %q", i, d.Workloads[i], w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, program %d+%d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range endToEnd {
		if got := d.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, program %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range perLayer {
		if got := d.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: declared %+v, program %+v", i, got, m)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (%q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
}

func tinyRunner(t *testing.T, trace bool) *runner {
	dir := t.TempDir()
	return &runner{workdir: dir, traceDir: dir, seed: 1, reps: 1, scale: 0.04, rounds: 1, trace: trace, log: io.Discard}
}

// TestSmokeEveryWorkload runs every workload at a tiny scale, untraced
// and traced, and holds the metric names each prints to the declared sets.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs, mode := endToEnd, "untraced"
		if traced {
			defs, mode = perLayer, "traced"
		}
		for _, w := range workloads {
			t.Run(mode+"/"+w.Name, func(t *testing.T) {
				r := tinyRunner(t, traced)
				res, err := w.run(r, w)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if printResult(&out, res, traced) {
					t.Errorf("run is not correct:\n%s", out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v)
					}
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var last struct {
					Correct   *bool                      `json:"correct"`
					Attempted *int                       `json:"attempted"`
					Failed    *int                       `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(defs) {
					t.Errorf("JSON result lacks a key or a metric: %s", lines[len(lines)-1])
				}
				if traced {
					if _, err := os.Stat(r.traceFile(w.Name)); err != nil {
						t.Errorf("no Chrome trace written: %v", err)
					}
				}
			})
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	if p, err := percentile(hundred, 90); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if p, err := percentile(hundred, 50); err != nil || p != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", p, err)
	}
	// 99 samples leave nine beyond p90.
	if _, err := percentile(hundred[:99], 90); err == nil {
		t.Error("p90 of 99 samples was not refused")
	}
	if _, err := percentile(hundred, 99); err == nil {
		t.Error("p99 of 100 samples was not refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples was not refused")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSumConsistent(t *testing.T) {
	for _, c := range []struct {
		stage, layers float64
		want          bool
	}{
		{1.0, 0.7, true},     // other time 30% of the stage
		{1.0, 1.0, true},     // a stage that is all one layer
		{1.0, 1.25, true},    // within the measured noise
		{1.0, 1.5, false},    // the replay did other work than the stage
		{0.012, 0.025, true}, // a 12 ms stage: absolute slack
		{0.012, 0.05, false},
	} {
		if got := sumConsistent(c.stage, c.layers); got != c.want {
			t.Errorf("sumConsistent(%v, %v) = %v, want %v", c.stage, c.layers, got, c.want)
		}
	}
}

// TestCorruptedFastaFails flips one base of a repetition's FASTA: the
// comparison must count the operation as failed.
func TestCorruptedFastaFails(t *testing.T) {
	warm := &runStats{Fasta: []byte(">contig0 len=8\nACGTACGT\n"), Modeled: 5}
	same := &runStats{Fasta: bytes.Clone(warm.Fasta), Modeled: 5}
	res := &workloadResult{Name: "asm_onepass", Attempted: 2, Metrics: map[string]float64{}}
	res.checkRepetition(0, same, warm, false)
	if res.Failed != 0 {
		t.Fatalf("an identical FASTA failed: %v", res.Failures)
	}
	corrupt := &runStats{Fasta: bytes.Clone(warm.Fasta), Modeled: 5}
	corrupt.Fasta[len(corrupt.Fasta)-2] = 'A'
	res.checkRepetition(1, corrupt, warm, false)
	if res.Failed != 1 || len(res.Failures) != 1 {
		t.Fatalf("a corrupted FASTA did not fail: failed=%d %v", res.Failed, res.Failures)
	}
	var out bytes.Buffer
	if !printResult(&out, res, false) {
		t.Error("a run with a failed operation was reported correct")
	}
	if !bytes.Contains(out.Bytes(), []byte("failed_frac")) || !bytes.Contains(out.Bytes(), []byte("0.5 fraction (1 of 2 operations)")) {
		t.Errorf("failed_frac not printed as 0.5:\n%s", out.String())
	}
}

// TestEvaluateMatchesQuality holds the indexed evaluator equal to
// quality.Evaluate, on exact contigs of both strands, a repeated one, one
// that aligns nowhere and one shorter than the index's k-mers.
func TestEvaluateMatchesQuality(t *testing.T) {
	genome, reads := readsim.HChr14.Scaled(0.1).Generate()
	contigs := []dna.Seq{
		genome[100:400].Clone(),
		genome[1000:1500].ReverseComplement(),
		genome[100:400].Clone(),
		genome[3000:3020].Clone(),
		reads.Read(0).Clone(),
	}
	bad := genome[2000:2300].Clone()
	bad[150] = (bad[150] + 1) % 4
	contigs = append(contigs, bad)
	got, want := evaluate(genome, contigs), quality.Evaluate(genome, contigs)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("evaluate = %+v\nquality.Evaluate = %+v", got, want)
	}
	if got.MisassembledContigs != 1 {
		t.Errorf("misassembled = %d, want 1", got.MisassembledContigs)
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, wall float64) string {
		rep := report{Seed: 1, Seconds: 8, Workloads: []*workloadResult{{Name: "asm_onepass", Attempted: 3, Metrics: map[string]float64{}}}}
		for _, d := range endToEnd {
			rep.Workloads[0].Metrics[d.Name] = 2
		}
		rep.Workloads[0].Metrics["wall_s"] = wall
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := endToEnd[1].Bound // wall_s
	base, near, far := write("a.json", 2), write("b.json", 2*(1+bound/2)), write("c.json", 2*(1+2*bound))
	var out bytes.Buffer
	if ok, err := compareFiles(&out, base, near); err != nil || !ok {
		t.Errorf("slower by half the bound was not within wall_s's bound: %v\n%s", err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, base, far); err != nil || ok {
		t.Errorf("slower by twice the bound was within wall_s's bound: %v\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("DIFFERS")) {
		t.Errorf("the differing pair is not marked:\n%s", out.String())
	}
}
