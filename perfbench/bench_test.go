package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/world"
)

// testSized returns wl at world.TestSpec / TestV6Spec size, under a name
// with no recorded digests. The spill workload's budget shrinks with the
// world so the store still flushes several segments.
func testSized(t *testing.T, name string) *workload {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	small := *wl
	small.name = name + "-test"
	full := wl.config
	small.config = func(seed uint64, dir string) experiment.Config {
		c := full(seed, dir)
		if c.Family == world.FamilyIPv6 {
			c.V6Spec = world.TestV6Spec(seed)
		} else {
			c.WorldSpec = world.TestSpec(seed)
		}
		if c.SpillDir != "" {
			c.MemBudget = 64 << 10
		}
		return c
	}
	return &small
}

func quiet(t *testing.T) {
	stdErr = io.Discard
	t.Cleanup(func() { stdErr = os.Stderr })
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkLine asserts that the result line reports success and exactly the
// metrics BENCHMARK.json lists, with their units.
func checkLine(t *testing.T, out *outcome, want []struct{ Name, Unit string }, defs []metricDef) {
	t.Helper()
	line, err := out.line(defs)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("correct=%v failed=%d attempted=%d", line.Correct, line.Failed, line.Attempted)
	}
	if len(line.Metrics) != len(want) {
		t.Fatalf("%d metrics emitted, BENCHMARK.json lists %d", len(line.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := line.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s not emitted", w.Name)
			continue
		}
		if got.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload, at test size, through both
// the untraced and the traced run. The traced run includes the replay
// digest == Study.Run digest check and the hook/trace-tree share
// reconciliation, so a correct line proves both.
func TestWorkloadsEndToEnd(t *testing.T) {
	quiet(t)
	b := readBenchmarkJSON(t)
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			small := testSized(t, wl.name)
			out, err := measure(ctx, small, 7, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, out, b.EndToEnd, endToEnd)
			for _, name := range []string{"setup_s", "study_s", "report_s", "export_s", "cpu_s", "alloc_mib", "peak_rss_mib"} {
				if out.metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, out.metrics[name])
				}
			}

			out, err = traced(ctx, small, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, out, b.PerLayer, perLayer)
			if small.config(7, "").SpillDir != "" && out.metrics["results.spill_segments"] < 2 {
				t.Errorf("spill workload flushed %v segments, want several", out.metrics["results.spill_segments"])
			}
		})
	}
}

// TestReplayDetectsDigestMismatch shows the replay's digest comparison is
// live: against a wrong study digest, the replay fails its check.
func TestReplayDetectsDigestMismatch(t *testing.T) {
	quiet(t)
	small := testSized(t, "hitlist-v6")
	out := &outcome{metrics: map[string]float64{}}
	cfg := small.config(3, "")
	cfg.Trials, cfg.Parallelism = 1, parallelism
	st, err := experiment.NewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(context.Background(), out, st.Config, "not-the-digest"); err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Fatalf("replay against a wrong digest: %d failed checks, want 1", out.failed)
	}
}

// TestRecordedDigestMismatchFails swaps in a wrong recorded digest and
// checks that the command fails: a result line with correct=false, then
// an error.
func TestRecordedDigestMismatchFails(t *testing.T) {
	quiet(t)
	saved := recordedDigestsJSON
	recordedDigestsJSON = []byte(`{"study-v4": {"7": "0000"}}`)
	t.Cleanup(func() { recordedDigestsJSON = saved })
	wl, _ := findWorkload("study-v4")
	savedCfg := wl.config
	wl.config = testSized(t, "study-v4").config
	t.Cleanup(func() { wl.config = savedCfg })

	root := t.TempDir()
	if err := os.Mkdir(root+"/.bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := run("study-v4", 7, 1, 0, root, "", &stdout)
	if err == nil {
		t.Fatal("run succeeded against a wrong recorded digest")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed == 0 {
		t.Fatalf("result line %+v, want correct=false with failures", line)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metric and workload tables
// here and in BENCHMARK.json agree name for name and unit for unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	compare := func(kind string, defs []metricDef, want []struct{ Name, Unit string }) {
		if len(defs) != len(want) {
			t.Errorf("%s: %d metrics defined, BENCHMARK.json lists %d", kind, len(defs), len(want))
			return
		}
		for i, d := range defs {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s), BENCHMARK.json has %s (%s)", kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, b.EndToEnd)
	compare("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads defined, BENCHMARK.json lists %d", len(workloads), len(b.Workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: %s, BENCHMARK.json has %s", i, wl.name, b.Workloads[i].Name)
		}
	}
}
