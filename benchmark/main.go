// Command benchmark is the repository's benchmark: six named workloads
// timed from input bytes to FASTA bytes, with per-layer numbers from a
// separate traced run. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory says why each was
// chosen and how the traced run attributes time.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh                                  every workload, untraced
//	bash benchmark/run.sh -trace 1 -workload asm_spmat     one workload, per-layer
//	bash benchmark/run.sh -out a.json; bash benchmark/run.sh -out b.json
//	bash benchmark/run.sh -compare a.json b.json
//
// After each workload it prints every metric by name and unit, then one
// JSON line {"correct", "attempted", "failed", "metrics"}. It exits
// non-zero when any check failed, after printing everything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded with every result file: numbers from different
// machines, toolchains or commits are not comparable without it.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	WorkdirFS  string `json:"workdirFilesystem"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	// Partial marks a run of a subset of the workloads or with -reps: not
	// comparable with a complete run.
	Partial   bool              `json:"partial"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up happens.
func run() int {
	var (
		names   = flag.String("workload", "all", "workloads to run, comma-separated, or all")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 10, "seconds each workload measures for (assembly workloads: at least 3 repetitions)")
		trace   = flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics instead of the end-to-end ones")
		reps    = flag.Int("reps", 0, "fixed number of timed repetitions (serve_jobs: cycles per client) instead of -seconds; marks the run partial")
		workdir = flag.String("workdir", "", "directory for inputs, workspaces and job stores (default: a fresh one under .bench_build/, removed on exit)")
		out     = flag.String("out", "", "write the results as JSON to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two result files given as arguments, instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	selected := workloads
	if *names != "all" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, ok := workloadByName(name)
			if !ok {
				return fatal(fmt.Errorf("unknown workload %q", name))
			}
			selected = append(selected, w)
		}
	}

	// Traces outlive the run; everything else under the work directory is
	// removed by whoever made it.
	dir, traceDir := *workdir, *workdir
	if dir == "" {
		traceDir = ".bench_build"
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return fatal(err)
		}
		var err error
		if dir, err = os.MkdirTemp(traceDir, "work-"); err != nil {
			return fatal(err)
		}
		defer os.RemoveAll(dir)
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return fatal(err)
	}
	r := &runner{workdir: dir, traceDir: traceDir, seed: *seed, seconds: *seconds, reps: *reps,
		scale: 1, rounds: replayRounds, trace: *trace != 0, log: os.Stdout}
	rep := report{Env: readEnvironment(dir), Seed: *seed, Seconds: *seconds, Trace: r.trace,
		Partial: len(selected) != len(workloads) || *reps > 0}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d workdir-fs=%s\n", rep.Env.NumCPU,
		rep.Env.GoMaxProcs, rep.Env.GoVersion, rep.Env.Commit, *seed, rep.Env.WorkdirFS)
	if rep.Partial {
		fmt.Println("# partial run: not comparable with a complete one")
	}

	failed := false
	for _, w := range selected {
		if w.Undeclared != "" {
			fmt.Printf("# %s is not declared in BENCHMARK.json: %s\n", w.Name, w.Undeclared)
		}
		res, err := w.run(r, w)
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		rep.Workloads = append(rep.Workloads, res)
		failed = printResult(os.Stdout, res, r.trace) || failed
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printResult prints the workload's metrics by name and unit, its failures,
// and the one-line JSON result; it reports whether the run is incorrect.
func printResult(w io.Writer, res *workloadResult, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(0, "metric %s was not measured", d.Name)
			continue
		}
		line.Metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "%-14s %-34s %16.6g %s\n", res.Name, d.Name, v, d.Unit)
	}
	if n := len(res.Samples); n > 0 && !traced {
		lo, hi := res.Samples[0], res.Samples[0]
		for _, s := range res.Samples {
			lo, hi = min(lo, s), max(hi, s)
		}
		fmt.Fprintf(w, "%-14s wall_s samples: n=%d min=%.4f max=%.4f\n", res.Name, n, lo, hi)
	}
	failedFrac := 1.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-14s %-34s %16.6g fraction (%d of %d operations)\n", res.Name, "failed_frac", failedFrac, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%-14s FAILED: %s\n", res.Name, f)
	}
	line.Correct = res.Failed == 0 && len(res.Failures) == 0 && res.Attempted > 0
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
		return true
	}
	fmt.Fprintln(w, string(data))
	return !line.Correct
}

func readEnvironment(workdir string) environment {
	env := environment{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", WorkdirFS: "unknown"}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(workdir, &fs); err == nil {
		names := map[int64]string{0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
			0x58465342: "xfs", 0x9123683e: "btrfs"}
		if env.WorkdirFS = names[int64(fs.Type)]; env.WorkdirFS == "" {
			env.WorkdirFS = fmt.Sprintf("type 0x%x", fs.Type)
		}
	}
	return env
}

// fatal reports err and returns the exit code for it.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}
