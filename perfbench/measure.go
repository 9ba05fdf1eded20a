package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

const (
	// minIterations is the fewest full studies a run measures, whatever
	// --seconds allows: two independent studies must produce one digest.
	minIterations = 2
	// The short phases — world+scenario build, export, and the
	// side-effect-free origin-bias report — repeat so their medians rest on
	// many samples even when the budget admits only two studies: at least
	// repMin times, and more while the repetitions have taken less than
	// repTime, up to repMax. A build takes about 20 ms on study-v4 and
	// hitlist-v6 and 0.6 s on scan-spill; an export 0.1–0.8 s.
	repMin, repMax = 3, 20
	repTime        = time.Second
)

// repeat times fn, each time after a garbage collection so that no
// collection owed by an earlier phase runs inside the timing: at least
// minReps times, and more while the total is under repTime, up to maxReps.
func repeat(minReps, maxReps int, fn func() error) ([]float64, error) {
	var ts []float64
	var spent time.Duration
	for i := 0; i < minReps || i < maxReps && spent < repTime; i++ {
		runtime.GC()
		t := time.Now()
		err := fn()
		d := time.Since(t)
		ts = append(ts, d.Seconds())
		spent += d
		if err != nil {
			return ts, err
		}
	}
	return ts, nil
}

// measure is the --trace 0 run: full studies, each on a freshly built
// world (Run is once per Study), until the --seconds budget would be
// exceeded by one more. Every metric is the median over the studies and
// repetitions; peak_rss_mib is the process high-water mark over all of
// them.
func measure(ctx context.Context, wl *workload, seed uint64, seconds int, dir string) (*outcome, error) {
	cfg := wl.config(seed, dir)
	want, known, err := recordedDigest(wl.name, seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	var study, rep, export, cpu, alloc []float64

	setup, err := repeat(repMin, repMax, func() error {
		_, err := core.New(ctx, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var last time.Duration
	var digest0 string
	for i := 0; i < minIterations || time.Since(start)+last <= budget; i++ {
		iter := time.Now()
		st, err := core.New(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}

		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		cpu0 := cpuSeconds()
		t := time.Now()
		runErr := st.Run(ctx)
		study = append(study, time.Since(t).Seconds())
		cpu = append(cpu, cpuSeconds()-cpu0)
		runtime.ReadMemStats(&ms)
		alloc = append(alloc, float64(ms.TotalAlloc-alloc0)/(1<<20))
		checkStudy(out, st, runErr)

		// report.All runs once per study: its Figure 13 retry experiment
		// advances the live IDS state, so a second run would do other work.
		minReps, maxReps := repMin, repMax
		if wl.paperReport {
			minReps, maxReps = 1, 1
		}
		ts, _ := repeat(minReps, maxReps, func() error {
			out.attempted++
			if err := wl.runReport(ctx, io.Discard, st); err != nil {
				out.fail("report: %v", err)
			}
			return nil
		})
		rep = append(rep, ts...)

		out.attempted++
		digests := map[string]bool{}
		ts, err = repeat(repMin, repMax, func() error {
			d, _, err := digestOf(st.DS)
			digests[d] = true
			if digest0 == "" {
				digest0 = d
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		export = append(export, ts...)
		switch {
		case len(digests) != 1 || !digests[digest0]:
			out.fail("study %d: dataset digest differs from study 0's %s", i, digest0)
		case known && digest0 != want:
			out.fail("dataset digest %s, recorded %s for %s seed %d", digest0, want, wl.name, seed)
		}
		fmt.Fprintf(stdErr, "perfbench: %s seed %d study %d: run %.3fs digest %s\n", wl.name, seed, i, study[len(study)-1], digest0)
		last = time.Since(iter)
	}

	rss, ok := telemetry.PeakRSSBytes()
	if !ok {
		return nil, fmt.Errorf("peak RSS unavailable on this platform")
	}
	out.metrics["setup_s"] = median(setup)
	out.metrics["study_s"] = median(study)
	out.metrics["report_s"] = median(rep)
	out.metrics["export_s"] = median(export)
	out.metrics["cpu_s"] = median(cpu)
	out.metrics["alloc_mib"] = median(alloc)
	out.metrics["peak_rss_mib"] = float64(rss) / (1 << 20)
	return out, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
