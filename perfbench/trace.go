package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// shareTolerance is the largest absolute difference allowed between a
// stage's share of scan-stage time as the benchmark's hooks measure it and
// as the program's own trace tree records it (0.01 = one percentage point).
// The two observe the same stage boundaries, so a larger gap means one of
// them lost or double-counted a stage.
const shareTolerance = 0.01

// traced is the --trace 1 run. It measures, in order:
//  1. an untraced Study.Run, the reference for the digest and for
//     trace_overhead_ratio;
//  2. a Study.Run with benchmark hooks and the program's trace tree
//     (telemetry registry + flight recorder), giving experiment.*, whose
//     stage shares are reconciled against the recorded journal;
//  3. the analysis passes and report sections over that dataset;
//  4. a serial replay of every scan through the layer functions (replay.go).
//
// The traced and replayed datasets must both equal the reference digest.
func traced(ctx context.Context, wl *workload, seed uint64, dir string) (*outcome, error) {
	cfg := wl.config(seed, dir)
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics

	runtime.GC()
	ref, err := core.New(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t := time.Now()
	refErr := ref.Run(ctx)
	refStudy := time.Since(t)
	checkStudy(out, ref, refErr)
	want, _, err := digestOf(ref.DS)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if rec, known, err := recordedDigest(wl.name, seed); err != nil {
		return nil, err
	} else if known && rec != want {
		out.fail("dataset digest %s, recorded %s for %s seed %d", want, rec, wl.name, seed)
	}
	studyCfg := ref.Exp.Config

	// The traced study: the benchmark's stage clock and the program's own
	// trace tree observe the same run.
	reg := core.NewTelemetry()
	journal := filepath.Join(dir, "trace", core.JournalFile)
	rec, err := core.NewRecorder(journal)
	if err != nil {
		return nil, fmt.Errorf("opening trace journal: %w", err)
	}
	reg.AttachRecorder(rec)
	// Closes the journal on error returns; after the explicit close
	// below it is a no-op.
	defer func() { _ = reg.CloseRecorder() }()
	clock := newStageClock()
	tcfg := cfg
	tcfg.Telemetry = reg
	tcfg.Hooks = clock.hooks()
	runtime.GC()
	st, err := core.New(ctx, tcfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runStart := clock.now()
	t = time.Now()
	runErr := st.Run(ctx)
	tracedStudy := time.Since(t)
	if err := reg.CloseRecorder(); err != nil {
		return nil, fmt.Errorf("closing trace journal: %w", err)
	}
	checkStudy(out, st, runErr)
	got, size, err := digestOf(st.DS)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if got != want {
		out.fail("traced study digest %s != untraced %s", got, want)
	}
	m["results.export_mib"] = float64(size) / (1 << 20)
	m["trace_overhead_ratio"] = tracedStudy.Seconds() / refStudy.Seconds()

	stages := [...]pipeline.Stage{pipeline.StageSweep, pipeline.StageGrab, pipeline.StageSeal}
	var hookSum float64
	for _, s := range stages {
		v := clock.seconds(s)
		m["experiment."+s.String()+"_stage_s"] = v
		hookSum += v
	}
	m["experiment.prologue_s"] = float64(clock.firstSweep.Load()-runStart) / 1e9
	m["experiment.busy_ratio"] = hookSum / (parallelism * tracedStudy.Seconds())

	traceSum, err := journalStageSeconds(journal)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, s := range stages {
		total += traceSum[s.String()]
	}
	gap := 0.0
	for _, s := range stages {
		gap = math.Max(gap, math.Abs(clock.seconds(s)/hookSum-traceSum[s.String()]/total))
	}
	m["experiment.trace_share_gap"] = gap
	out.attempted++
	if !(gap <= shareTolerance) {
		out.fail("stage shares from hooks and trace tree differ by %.4f > %.2f", gap, shareTolerance)
	}

	reportLayers(ctx, out, wl, st)

	if err := replay(ctx, out, studyCfg, want); err != nil {
		return nil, err
	}
	return out, nil
}

// checkStudy counts the study's scans as attempted and fails each that is
// missing or violates an invariant.
func checkStudy(out *outcome, st *core.Study, runErr error) {
	out.attempted += len(scanKeys(st.Exp.Config))
	errs := checkDataset(st.DS, st.Exp.Config, st.World())
	if runErr != nil {
		fmt.Fprintf(stdErr, "perfbench: study: %v\n", runErr)
		if len(errs) == 0 {
			out.fail("study returned %v with a complete dataset", runErr)
		}
	}
	for _, e := range errs {
		out.fail("%v", e)
	}
}

// stageClock is a pipeline.Hooks observer that sums each stage's duration
// over all scans without pairing Before and After calls: Before subtracts
// the current time and After adds it, so concurrent scans need only
// atomic adds.
type stageClock struct {
	epoch time.Time
	net   [pipeline.NumStages]atomic.Int64
	// firstSweep is the earliest Sweep start, in clock.now units.
	firstSweep atomic.Int64
}

func newStageClock() *stageClock {
	c := &stageClock{epoch: time.Now()}
	c.firstSweep.Store(math.MaxInt64)
	return c
}

// now is nanoseconds since the clock's epoch.
func (c *stageClock) now() int64 { return time.Since(c.epoch).Nanoseconds() }

func (c *stageClock) seconds(s pipeline.Stage) float64 { return float64(c.net[s].Load()) / 1e9 }

func (c *stageClock) hooks() pipeline.Hooks {
	return pipeline.Hooks{
		Before: func(_ context.Context, s pipeline.Stage) {
			now := c.now()
			c.net[s].Add(-now)
			if s != pipeline.StageSweep {
				return
			}
			for {
				first := c.firstSweep.Load()
				if now >= first || c.firstSweep.CompareAndSwap(first, now) {
					return
				}
			}
		},
		After: func(_ context.Context, s pipeline.Stage, _ error) {
			c.net[s].Add(c.now())
		},
	}
}

// journalStageSeconds reads a flight-recorder journal the way
// cmd/tracestat does and sums the scan_stage spans by their stage label.
func journalStageSeconds(path string) (map[string]float64, error) {
	evs, err := telemetry.ReadJournal(path)
	if err != nil {
		return nil, fmt.Errorf("reading trace journal: %w", err)
	}
	sums := map[string]float64{}
	for _, s := range telemetry.JournalSpans(evs) {
		if s.Name == "scan_stage" {
			sums[labelValue(s.Labels, "stage")] += s.Duration.Seconds()
		}
	}
	return sums, nil
}

// labelValue extracts key's value from a span's canonical label string
// (k="v",k2="v2"). Stage names carry no escapes.
func labelValue(labels, key string) string {
	_, rest, ok := strings.Cut(","+labels, ","+key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// reportLayers times the analysis passes and the report sections over the
// traced study's dataset, each around the exported function. The report
// sections run on a fresh view of the study so the classifier cache starts
// empty, as it does for report.All.
func reportLayers(ctx context.Context, out *outcome, wl *workload, st *core.Study) {
	m := out.metrics
	ds := st.DS
	var origins origin.Set
	for _, o := range ds.Origins {
		if o != origin.CARINET {
			origins = append(origins, o)
		}
	}
	var cov, cls, exc, multi time.Duration
	for _, p := range scannedProtocols(ds) {
		t := time.Now()
		analysis.Coverage(ds, p)
		cov += time.Since(t)
		t = time.Now()
		c := analysis.NewClassifier(ds, p)
		cls += time.Since(t)
		t = time.Now()
		analysis.Exclusive(c)
		exc += time.Since(t)
		for _, single := range []bool{true, false} {
			out.attempted++
			t = time.Now()
			if _, err := analysis.MultiOrigin(ctx, ds, p, origins, single); err != nil {
				out.fail("multi-origin %v: %v", p, err)
			}
			multi += time.Since(t)
		}
	}
	m["analysis.coverage_s"] = cov.Seconds()
	m["analysis.classifier_s"] = cls.Seconds()
	m["analysis.exclusive_s"] = exc.Seconds()
	m["analysis.multiorigin_s"] = multi.Seconds()

	view := &core.Study{Exp: st.Exp}
	view.UseDataset(ds)
	section := func(name string, fn func() error) {
		out.attempted++
		t := time.Now()
		if err := fn(); err != nil {
			out.fail("report %s: %v", name, err)
		}
		m[name] = time.Since(t).Seconds()
	}
	section("report.fig13_s", func() error { return report.Fig13(ctx, io.Discard, view) })
	section("report.fig15_s", func() error { return report.Fig15(ctx, io.Discard, view, proto.HTTP) })
	section("report.fig17_s", func() error { return report.Fig17(ctx, io.Discard, view) })
	if !wl.paperReport {
		// The origin-bias table: its passes are timed above, its
		// rendering is the rest of the report.
		tabs := originBias(ds)
		section("report.other_s", func() error { renderOriginBias(io.Discard, tabs, ds.Origins); return nil })
		return
	}
	section("report.other_s", func() error {
		for _, fn := range otherSections {
			fn(io.Discard, view)
		}
		return nil
	})
}

// otherSections are report.All's sections other than Figures 13, 15 and
// 17, in report.All's order.
var otherSections = []func(io.Writer, *core.Study){
	report.Tab4Coverage,
	report.Fig1,
	report.Fig2,
	report.Fig3,
	report.Fig4,
	report.Fig5,
	func(w io.Writer, s *core.Study) { report.Fig6(w, s, proto.HTTP) },
	report.Fig7,
	report.Fig8,
	report.Fig9,
	report.Fig10,
	report.Fig11,
	report.Fig12,
	report.Fig14,
	report.Fig16,
	report.Tab1,
	func(w io.Writer, s *core.Study) { report.Tab2(w, s, proto.HTTP) },
	report.Tab3,
	report.Tab5,
	report.Sec3McNemar,
	report.Sec44Spearman,
	report.Sec52PacketLoss,
	report.Sec53Bursts,
	report.Sec7Probes,
	report.Sec8Agreement,
	report.BannerCensus,
}
