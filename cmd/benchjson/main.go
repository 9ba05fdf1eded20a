// Command benchjson converts `go test -bench` output on stdin into the
// repo's BENCH_*.json record format (date, machine, command, note,
// results). The Makefile's bench targets pipe through it so the checked-in
// benchmark files stay machine-generated and uniform:
//
//	go test -run xxx -bench Sweep -benchtime 10x ./internal/zmap/ |
//	    go run ./cmd/benchjson -command "..." -note "..." -out BENCH_telemetry.json
//
// With -benchmem output the B/op and allocs/op columns are captured too.
// The -before flag names a file holding raw `go test -bench` output from a
// prior run (e.g. the pre-optimisation tree); when given, each benchmark is
// emitted as {"before": ..., "after": ...} so a BENCH file records the
// perf delta the way BENCH_columnar.json does. Without -before the legacy
// flat results_ns_per_op map is emitted — unless a benchmark line carries
// -benchmem columns or b.ReportMetric columns (peak-rss-MiB, rows, spill
// counters …), in which case the rich per-benchmark form is used so those
// measurements land in the JSON instead of being dropped with the flat map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type machine struct {
	CPU    string `json:"cpu"`
	Cores  int    `json:"cores"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
}

// metrics is one benchmark line's measurements. Bytes/allocs are pointers
// so runs without -benchmem omit them rather than recording zeros. Extra
// holds any b.ReportMetric columns (unit → value), e.g. the scale
// benchmark's peak-rss-MiB — that is how a BENCH file proves a memory
// budget held, not just how fast the run was.
type metrics struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// diff pairs a benchmark's current measurement with the prior run it is
// being compared against.
type diff struct {
	Before *metrics `json:"before,omitempty"`
	After  metrics  `json:"after"`
}

type record struct {
	Date    string  `json:"date"`
	Machine machine `json:"machine"`
	Command string  `json:"command"`
	Note    string  `json:"note,omitempty"`
	// Flat is the legacy ns/op-only map, emitted when no -before file is
	// given (matches the oldest BENCH files).
	Flat map[string]float64 `json:"results_ns_per_op,omitempty"`
	// Results is the before/after form, emitted with -before.
	Results map[string]diff `json:"results,omitempty"`
}

func main() {
	var (
		command = flag.String("command", "", "benchmark command line to record")
		note    = flag.String("note", "", "free-form note about the run")
		out     = flag.String("out", "", "output file (default stdout)")
		before  = flag.String("before", "", "file of raw benchmark output from a prior run to diff against")
		gateNum = flag.String("gate-num", "", "gate: benchmark whose ns/op is the numerator")
		gateDen = flag.String("gate-den", "", "gate: benchmark whose ns/op is the denominator")
		gateMax = flag.Float64("gate-max", 0, "gate: fail (exit 1) when num/den exceeds this ratio")
	)
	flag.Parse()

	rec := record{
		Date: time.Now().Format("2006-01-02"),
		Machine: machine{
			CPU:    cpuModel(),
			Cores:  runtime.NumCPU(),
			GOOS:   runtime.GOOS,
			GOARCH: runtime.GOARCH,
		},
		Command: *command,
		Note:    *note,
	}

	after, err := parseBench(os.Stdin, true)
	if err != nil {
		fatalf("reading stdin: %v", err)
	}
	if len(after) == 0 {
		fatalf("no benchmark results found on stdin")
	}

	if *before != "" {
		f, err := os.Open(*before)
		if err != nil {
			fatalf("%v", err)
		}
		prior, err := parseBench(f, false)
		f.Close()
		if err != nil {
			fatalf("reading %s: %v", *before, err)
		}
		rec.Results = map[string]diff{}
		for name, m := range after {
			d := diff{After: m}
			if b, ok := prior[name]; ok {
				bc := b
				d.Before = &bc
			}
			rec.Results[name] = d
		}
	} else {
		if !nsOnly(after) {
			rec.Results = map[string]diff{}
			for name, m := range after {
				rec.Results[name] = diff{After: m}
			}
		} else {
			rec.Flat = map[string]float64{}
			for name, m := range after {
				rec.Flat[name] = m.NsPerOp
			}
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", *out, err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fatalf("encoding: %v", err)
	}
	if *out != "" {
		fmt.Printf("benchmark results written to %s\n", *out)
	}

	// The ratio gate runs after the record is written, so a failing run
	// still leaves its numbers on disk for inspection.
	if *gateNum != "" || *gateDen != "" || *gateMax != 0 {
		if *gateNum == "" || *gateDen == "" || *gateMax <= 0 {
			fatalf("-gate-num, -gate-den, and -gate-max (> 0) must be given together")
		}
		num, ok := after[*gateNum]
		if !ok {
			fatalf("gate: benchmark %q not in results", *gateNum)
		}
		den, ok := after[*gateDen]
		if !ok {
			fatalf("gate: benchmark %q not in results", *gateDen)
		}
		if den.NsPerOp <= 0 {
			fatalf("gate: %s ns/op is %v", *gateDen, den.NsPerOp)
		}
		ratio := num.NsPerOp / den.NsPerOp
		fmt.Printf("gate: %s / %s = %.4f (max %.4f)\n", *gateNum, *gateDen, ratio, *gateMax)
		if ratio > *gateMax {
			fatalf("gate failed: %s is %.1f%% slower than %s (budget %.1f%%)",
				*gateNum, 100*(ratio-1), *gateDen, 100*(*gateMax-1))
		}
	}
}

// nsOnly reports whether every benchmark measured ns/op alone — no
// -benchmem columns and no b.ReportMetric extras — which is when the legacy
// flat ns/op map loses nothing.
func nsOnly(results map[string]metrics) bool {
	for _, m := range results {
		if len(m.Extra) > 0 || m.BytesPerOp != nil || m.AllocsPerOp != nil {
			return false
		}
	}
	return true
}

// parseBench extracts benchmark measurements from `go test -bench` output.
// Lines look like "BenchmarkName-8  10  123456 ns/op  42 B/op  3 allocs/op"
// (the memory columns only under -benchmem). Names are recorded without the
// -GOMAXPROCS suffix, matching the existing BENCH files. Under `-count N`
// a benchmark appears N times; the fastest sample wins (minimum-of-N is
// the noise-robust point estimate — scheduler and frequency interference
// only ever add time), which is what makes the ratio gate usable on shared
// runners. When tee is set, every input line is echoed to stdout so raw
// output stays visible in CI logs.
func parseBench(r io.Reader, tee bool) (map[string]metrics, error) {
	results := map[string]metrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if tee {
			fmt.Println(line)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var m metrics
		found := false
		for i, f := range fields {
			if i == 0 {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch f {
			case "ns/op":
				m.NsPerOp = v
				found = true
			case "B/op":
				bv := v
				m.BytesPerOp = &bv
			case "allocs/op":
				av := v
				m.AllocsPerOp = &av
			default:
				// Custom b.ReportMetric columns ("5280527 rows", "412
				// peak-rss-MiB"). A unit token is any field that follows a
				// number without being one itself — the iteration count at
				// fields[1] never matches because the field after it is the
				// ns/op value, which parses as a number.
				if _, err := strconv.ParseFloat(f, 64); err == nil {
					continue
				}
				if m.Extra == nil {
					m.Extra = map[string]float64{}
				}
				m.Extra[f] = v
			}
		}
		if !found {
			continue
		}
		name := fields[0]
		// Strip only a numeric -GOMAXPROCS suffix; sub-benchmark names may
		// themselves contain hyphens ("/routed-empty") and the suffix is
		// absent entirely when GOMAXPROCS is 1.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if prev, ok := results[name]; ok && prev.NsPerOp <= m.NsPerOp {
			continue // repeated run (-count): keep the fastest sample
		}
		results[name] = m
	}
	return results, sc.Err()
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux); other
// platforms record the architecture.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, after, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(after)
			}
		}
	}
	return runtime.GOARCH
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
