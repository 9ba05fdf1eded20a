// Command perfbench is the repository's study benchmark. It drives the
// public study API — experiment.NewStudy, Study.Run, the report and
// analysis passes, and results.Dataset.WriteJSON — over one named
// workload, checks that the sealed dataset is correct, and prints the
// measured metrics as one JSON object on the last line of standard output,
// after a provenance line (machine, toolchain, source digest, seed and
// workload parameters).
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload study-v4 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with all instrumentation off:
// setup (NewStudy), Study.Run wall and CPU time and bytes allocated, the
// workload's report stage, the WriteJSON export, and peak RSS. Scans run
// on a pool pinned at two workers.
//
// --trace 1 measures the per-layer metrics (trace.go): Study.Run with
// benchmark stage hooks and the program's own trace tree, reconciled
// against each other; the analysis passes and report sections; and a
// serial replay of every scan through the fast-path layer functions with
// a timing span around each call (replay.go).
//
// Every run checks the dataset invariants and its digest: against the
// digest recorded for the workload and seed (digests.json), across
// repeated studies, and in a traced run between Study.Run and the replay.
// A failed check makes the result line's "correct" false and the exit
// status 1. BENCHMARK.json lists the workloads and every metric with its
// unit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stdErr receives diagnostics; tests silence it.
var stdErr io.Writer = os.Stderr

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics: what a user of the study sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"study_s", "s"},
	{"report_s", "s"},
	{"export_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib", "MiB"},
}

// perLayer are the --trace 1 metrics, one group per module.
var perLayer = []metricDef{
	{"world.build_s", "s"},
	{"world.hosts", "count"},
	{"scenario.build_s", "s"},

	{"zmap.sweep_s", "s"},
	{"zmap.self_s", "s"},
	{"zmap.targets", "count"},
	{"zmap.ns_per_target", "ns"},
	{"zmap.replies", "count"},
	{"zmap.reply_ratio", "ratio"},

	{"fabric.send_calls", "count"},
	{"fabric.send_s", "s"},
	{"fabric.ns_per_send", "ns"},
	{"fabric.send_ratio", "ratio"},
	{"fabric.predial_s", "s"},
	{"fabric.ns_per_predial", "ns"},

	{"zgrab.grabs", "count"},
	{"zgrab.grab_s", "s"},
	{"zgrab.ns_per_grab", "ns"},
	{"zgrab.success_ratio", "ratio"},
	{"zgrab.attempts_per_grab", "ratio"},

	{"results.append_s", "s"},
	{"results.ns_per_row_append", "ns"},
	{"results.seal_s", "s"},
	{"results.rows", "count"},
	{"results.spill_segments", "count"},
	{"results.spilled_mib", "MiB"},
	{"results.flush_s", "s"},
	{"results.merge_s", "s"},
	{"results.export_mib", "MiB"},

	{"experiment.prologue_s", "s"},
	{"experiment.sweep_stage_s", "s"},
	{"experiment.grab_stage_s", "s"},
	{"experiment.seal_stage_s", "s"},
	{"experiment.busy_ratio", "ratio"},
	{"experiment.trace_share_gap", "ratio"},

	{"analysis.classifier_s", "s"},
	{"analysis.coverage_s", "s"},
	{"analysis.exclusive_s", "s"},
	{"analysis.multiorigin_s", "s"},

	{"report.fig13_s", "s"},
	{"report.fig15_s", "s"},
	{"report.fig17_s", "s"},
	{"report.other_s", "s"},

	{"replay_s", "s"},
	{"other_s", "s"},
	{"trace_overhead_ratio", "ratio"},
}

// outcome is one benchmark run's result line.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// fail records one failed check, with the reason on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(stdErr, "perfbench: check failed: "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the outcome against defs; every defined metric must have
// been measured.
func (o *outcome) line(defs []metricDef) (resultLine, error) {
	out := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(o.metrics) != len(defs) {
		return out, fmt.Errorf("measured %d metrics, %d defined", len(o.metrics), len(defs))
	}
	return out, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "measurement time budget in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		root    = flag.String("root", ".", "repository checkout root")
		commit  = flag.String("commit", "", "source revision, recorded in the provenance line")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *root, *commit, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and prints the provenance line and the
// result line to stdout. It returns an error — after printing the result —
// when a correctness check failed.
func run(name string, seed uint64, seconds, trace int, root, commit string, stdout io.Writer) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", seconds)
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	prov := provenance(wl, seed, seconds, trace, root, commit)
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	ctx := context.Background()
	var out *outcome
	defs := endToEnd
	if trace == 0 {
		out, err = measure(ctx, wl, seed, seconds, dir)
	} else {
		defs = perLayer
		out, err = traced(ctx, wl, seed, dir)
	}
	if err != nil {
		return err
	}
	line, err := out.line(defs)
	if err != nil {
		return err
	}
	lj, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", lj)
	if !line.Correct {
		return fmt.Errorf("%d of %d checks failed", line.Failed, line.Attempted)
	}
	return nil
}

// provenance describes the machine, toolchain, source and workload a
// result was measured with.
func provenance(wl *workload, seed uint64, seconds, trace int, root, commit string) map[string]any {
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   wl.name,
		"params":     wl.params,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"source":     sourceDigest(root),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest is a SHA-256 over the path and contents of every Go source
// and module file of the checkout, so a result names the code it measured
// even where no revision control metadata exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	hw := newHashWriter()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(hw, "%s %d\n", rel, len(data))
		hw.Write(data)
	}
	return hw.digest()
}
