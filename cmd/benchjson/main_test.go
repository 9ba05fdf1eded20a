package main

import (
	"strings"
	"testing"
)

func TestParseBenchCapturesExtraMetrics(t *testing.T) {
	out := `
goos: linux
BenchmarkScale1Study-4   1  199123456789 ns/op  5280527 rows  412.5 peak-rss-MiB  31 spill-segments  201 B/op  7 allocs/op
BenchmarkPlain  10  1234 ns/op
`
	got, err := parseBench(strings.NewReader(out), false)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got["BenchmarkScale1Study"]
	if !ok {
		t.Fatalf("missing BenchmarkScale1Study in %v", got)
	}
	if m.NsPerOp != 199123456789 {
		t.Errorf("ns/op = %v", m.NsPerOp)
	}
	if m.BytesPerOp == nil || *m.BytesPerOp != 201 || m.AllocsPerOp == nil || *m.AllocsPerOp != 7 {
		t.Errorf("benchmem columns not captured: %+v", m)
	}
	want := map[string]float64{"rows": 5280527, "peak-rss-MiB": 412.5, "spill-segments": 31}
	if len(m.Extra) != len(want) {
		t.Fatalf("extra = %v, want %v", m.Extra, want)
	}
	for k, v := range want {
		if m.Extra[k] != v {
			t.Errorf("extra[%q] = %v, want %v", k, m.Extra[k], v)
		}
	}
	// The iteration count must not leak in as a metric named after the
	// ns/op value, and a plain line has no extras at all.
	if p := got["BenchmarkPlain"]; p.NsPerOp != 1234 || len(p.Extra) != 0 {
		t.Errorf("plain line parsed as %+v", p)
	}
}

// TestNsOnlySelectsSchema: the flat ns/op map is kept only for input that
// measured nothing else, so -benchmem and ReportMetric columns are never
// dropped from a BENCH file.
func TestNsOnlySelectsSchema(t *testing.T) {
	for _, tc := range []struct {
		out  string
		want bool
	}{
		{"BenchmarkA  10  1234 ns/op\nBenchmarkB  10  99 ns/op\n", true},
		{"BenchmarkA  10  1234 ns/op\nBenchmarkB  10  99 ns/op  16 B/op  1 allocs/op\n", false},
		{"BenchmarkA  10  1234 ns/op  3 rows\n", false},
	} {
		got, err := parseBench(strings.NewReader(tc.out), false)
		if err != nil {
			t.Fatal(err)
		}
		if nsOnly(got) != tc.want {
			t.Errorf("nsOnly(%q) = %v, want %v", tc.out, !tc.want, tc.want)
		}
	}
}
