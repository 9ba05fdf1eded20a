package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/report"
	"repro/internal/results"
	"repro/internal/world"
)

// parallelism pins the scan pool at two workers instead of GOMAXPROCS, so
// every machine runs the same schedule of concurrent scans.
const parallelism = 2

// spillBudget is scan-spill's study-wide result budget: split over the
// two pool workers it leaves each scan 4 MiB of live columns, which forces
// several segment flushes and a multi-way merge at Seal for a 686k-row
// scan.
const spillBudget = 8 << 20

// workload is one benchmark input: a study configuration derived from the
// seed, plus the analysis stage that reports on its dataset.
type workload struct {
	name string
	// params describe the workload for the provenance record.
	params map[string]any
	// config builds the study; spillDir is an existing scratch directory.
	config func(seed uint64, spillDir string) experiment.Config
	// paperReport selects report.All as the workload's analysis stage;
	// otherwise it is the origin-bias table `originscan -family ipv6`
	// prints (coverage, classifier and exclusivity per protocol).
	paperReport bool
}

// runReport runs the workload's analysis stage (report_s), rendering to w.
func (wl *workload) runReport(ctx context.Context, w io.Writer, s *core.Study) error {
	if wl.paperReport {
		return report.All(ctx, w, s)
	}
	renderOriginBias(w, originBias(s.DS), s.DS.Origins)
	return nil
}

var workloads = []workload{
	// The paper's main matrix, the run users make: sweep-heavy, and the
	// only workload that exercises the 66-scan pool, the IDS plan and the
	// full report.
	{
		name: "study-v4",
		params: map[string]any{
			"family": "ipv4", "scale": 3e-4, "origins": "7 study origins + Carinet (trial 0)",
			"protocols": "http,https,ssh", "trials": 3, "scans": 66, "parallelism": parallelism,
			"store": "memory", "report": "report.All",
		},
		config: func(seed uint64, _ string) experiment.Config {
			return experiment.Config{
				WorldSpec:      world.Spec{Seed: seed, Scale: 3e-4},
				IncludeCarinet: true,
				Parallelism:    parallelism,
			}
		},
		paperReport: true,
	},
	// The same matrix without Carinet over the seeded IPv6 world. Scans
	// walk the hitlist, so the permutation and the routed-space
	// short-circuit do no work: a sweep-kernel gain should not move it,
	// a grab or seal gain should show here first.
	{
		name: "hitlist-v6",
		params: map[string]any{
			"family": "ipv6", "v6_providers": 48, "v6_islands_per_provider": 16, "v6_hosts_per_island": 48,
			"origins": "7 study origins", "protocols": "http,https,ssh", "trials": 3, "scans": 63,
			"parallelism": parallelism, "store": "memory", "report": "coverage+classifier+exclusive per protocol",
		},
		config: func(seed uint64, _ string) experiment.Config {
			return experiment.Config{
				WorldSpec:   world.Spec{Seed: seed, Scale: 3e-4},
				Family:      world.FamilyIPv6,
				V6Spec:      world.V6Spec{Seed: seed, Providers: 48, IslandsPerProvider: 16, HostsPerIsland: 48},
				Parallelism: parallelism,
			}
		},
	},
	// One large scan through the spill store: segment flushes and an
	// external merge, a FIB working set far beyond the CPU caches, and a
	// second core that idles — where sweep→grab overlap and reply-log
	// memory savings would show.
	{
		name: "scan-spill",
		params: map[string]any{
			"family": "ipv4", "scale": 0.01, "origins": "US1", "protocols": "http", "trials": 1, "scans": 1,
			"parallelism": parallelism, "store": "spill", "mem_budget_bytes": spillBudget,
			"report": "coverage+classifier+exclusive for http",
		},
		config: func(seed uint64, spillDir string) experiment.Config {
			return experiment.Config{
				WorldSpec:   world.Spec{Seed: seed, Scale: 0.01},
				Origins:     origin.Set{origin.US1},
				Protocols:   []proto.Protocol{proto.HTTP},
				Trials:      1,
				Parallelism: parallelism,
				SpillDir:    spillDir,
				MemBudget:   spillBudget,
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// biasTable is the origin-bias summary of one protocol, as
// `originscan -family ipv6` prints it.
type biasTable struct {
	p   proto.Protocol
	cov analysis.CoverageTable
	cls *analysis.Classifier
	ex  analysis.Exclusivity
}

// scannedProtocols lists the protocols the dataset holds scans of, in
// proto.All order.
func scannedProtocols(ds *results.Dataset) []proto.Protocol {
	var ps []proto.Protocol
	for _, p := range proto.All() {
		for _, o := range ds.Origins {
			if ds.Scan(o, p, 0) != nil {
				ps = append(ps, p)
				break
			}
		}
	}
	return ps
}

// originBias runs the coverage, classifier and exclusivity passes for
// every scanned protocol.
func originBias(ds *results.Dataset) []biasTable {
	var out []biasTable
	for _, p := range scannedProtocols(ds) {
		t := biasTable{p: p, cov: analysis.Coverage(ds, p), cls: analysis.NewClassifier(ds, p)}
		t.ex = analysis.Exclusive(t.cls)
		out = append(out, t)
	}
	return out
}

func renderOriginBias(w io.Writer, tabs []biasTable, origins origin.Set) {
	for _, t := range tabs {
		fmt.Fprintf(w, "%v: union of hosts seen by any origin: %d\n", t.p, len(t.cls.Union()))
		fmt.Fprintf(w, "%-8s%10s%12s\n", "origin", "coverage", "exclusive")
		for _, o := range origins {
			fmt.Fprintf(w, "%-8v%9.2f%%%12d\n", o, 100*t.cov.Mean(o, false), len(t.ex.Accessible[o]))
		}
	}
}
