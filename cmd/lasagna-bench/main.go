// Command lasagna-bench regenerates every table and figure of the paper's
// evaluation (Section IV) on scaled synthetic datasets:
//
//	Table I    dataset inventory
//	Table II   phase times on the QB2-like machine (128GB+K40)
//	Table III  phase times on the SuperMic-like machine (64GB+K20)
//	Table IV   peak host/device memory per phase (QB2)
//	Table V    peak host/device memory per phase (SuperMic)
//	Table VI   SGA baseline vs LaSAGNA
//	Fig. 8     sort time vs host and device block-sizes
//	Fig. 9     sort time vs GPU model and host block-size
//	Fig. 10    distributed execution times for 1-8 nodes
//
// Usage:
//
//	lasagna-bench -exp all -scale 1.0 [-workspace dir]
//	lasagna-bench -exp table2,fig9 -scale 0.25
//
// Each experiment computes its rows once (the harness methods) and prints
// them; TestPaperShapes asserts the paper's shape claims on the same rows.
// Modeled times come from the analytic hardware model (bytes moved per
// tier divided by tier bandwidth); wall times are the CPU simulation's
// real clock. Shapes — which phase dominates, who wins, where crossovers
// fall — are the reproduction target, not absolute values.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/buildinfo"
)

// experiment computes one table or figure on the harness and prints it.
type experiment struct {
	key string
	run func(h *harness) error
}

// experiments lists every table and figure in print order.
var experiments = []experiment{
	{"table1", func(h *harness) error { printTable1(h.scale, h.table1()); return nil }},
	{"table2", func(h *harness) error { return printRuns(h, qb2, "Table II", printPhaseTable) }},
	{"table3", func(h *harness) error { return printRuns(h, supermic, "Table III", printPhaseTable) }},
	{"table4", func(h *harness) error { return printRuns(h, qb2, "Table IV", printMemoryTable) }},
	{"table5", func(h *harness) error { return printRuns(h, supermic, "Table V", printMemoryTable) }},
	{"table6", func(h *harness) error {
		rows, err := h.table6()
		if err != nil {
			return err
		}
		dbg, err := h.debruijn()
		if err == nil {
			printTable6(rows, dbg)
		}
		return err
	}},
	{"fig8", func(h *harness) error {
		f, err := h.fig8()
		if err == nil {
			printFig8(f)
		}
		return err
	}},
	{"fig9", func(h *harness) error {
		f, err := h.fig9()
		if err == nil {
			printFig9(f)
		}
		return err
	}},
	{"fig10", func(h *harness) error {
		rows, err := h.fig10()
		if err == nil {
			printFig10(rows)
		}
		return err
	}},
}

// parseExperiments resolves a comma-separated -exp value into the
// experiments to run, in print order. "all" selects every experiment;
// any other name, including an empty entry, must name one exactly.
func parseExperiments(list string) ([]experiment, error) {
	names := strings.Split(list, ",")
	want := map[string]bool{}
	for i, name := range names {
		names[i] = strings.TrimSpace(strings.ToLower(name))
		want[names[i]] = true
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.key] {
			out = append(out, e)
		}
		delete(want, e.key)
	}
	for _, name := range names {
		if name != "all" && want[name] {
			return nil, fmt.Errorf("unknown experiment %q in -exp %q", name, list)
		}
	}
	return out, nil
}

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: table1..table6, fig8, fig9, fig10, or all")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default scaled profiles)")
		workspace = flag.String("workspace", "", "scratch directory (default: a temp dir)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("lasagna-bench"))
		return
	}
	selected, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lasagna-bench: %v\n", err)
		os.Exit(2)
	}

	ws := *workspace
	if ws == "" {
		dir, err := os.MkdirTemp("", "lasagna-bench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		ws = dir
	} else if err := os.MkdirAll(ws, 0o755); err != nil {
		fatal(err)
	}

	h := newHarness(ws, *scale)
	for _, e := range selected {
		if err := e.run(h); err != nil {
			fatal(fmt.Errorf("%s: %w", e.key, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lasagna-bench: %v\n", err)
	os.Exit(1)
}
