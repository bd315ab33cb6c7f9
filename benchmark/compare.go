package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Trace {
		return nil, fmt.Errorf("%s holds a traced run; only end-to-end results compare", path)
	}
	return &rep, nil
}

// compareFiles prints every end-to-end metric x workload of two result
// files written by -out, with both values, the ratio of the second to the
// first (its base) and the bound, and reports whether every pair of a
// declared workload agrees: the second no worse than the first by more than
// the bound, and no failed operation on either side.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Partial || b.Partial {
		fmt.Fprintln(w, "# a partial run is not comparable with a complete one; comparing what both hold")
	}
	if a.Seed != b.Seed || a.Env != b.Env {
		fmt.Fprintf(w, "# the runs differ in seed or environment: %d %+v vs %d %+v\n", a.Seed, a.Env, b.Seed, b.Env)
	}
	byName := map[string]*workloadResult{}
	for _, res := range b.Workloads {
		byName[res.Name] = res
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", pathA, pathB, "B/A", "bound")
	for _, ra := range a.Workloads {
		rb, both := byName[ra.Name]
		if !both {
			continue
		}
		// A workload BENCHMARK.json does not declare is shown, not judged.
		wl, _ := workloadByName(ra.Name)
		judged := wl.Undeclared == ""
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: %d of %d vs %d of %d\n", ra.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			worse := vb/va - 1
			if d.Better == "higher" {
				worse = 1 - vb/va
			}
			verdict := ""
			if worse > d.Bound || va == 0 {
				verdict = "  DIFFERS"
				if judged {
					ok = false
				} else {
					verdict += " (not declared, not judged)"
				}
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %9.4f %6.1f%%%s\n", ra.Name, d.Name, va, vb, vb/va, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}
