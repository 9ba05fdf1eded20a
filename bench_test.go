// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark regenerates its table/figure from a shared small-scale study
// (the fixture runs the full 3-trial × 3-protocol multi-origin scan once
// per process) and reports the headline quantity as a custom metric so the
// bench output doubles as a results summary.
//
// Run with: go test -bench=. -benchmem
package scanorigin

import (
	"context"
	"io"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/report"
	"repro/internal/world"
)

var (
	benchOnce sync.Once
	benchStu  *core.Study
	benchErr  error
)

func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStu, benchErr = core.New(context.Background(), experiment.Config{
			WorldSpec:      world.TestSpec(2020),
			IncludeCarinet: true,
		})
		if benchErr == nil {
			benchErr = benchStu.Run(context.Background())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStu
}

// BenchmarkFig01Coverage regenerates Figure 1: per-origin host coverage.
func BenchmarkFig01Coverage(b *testing.B) {
	s := benchStudy(b)
	var tab analysis.CoverageTable
	for i := 0; i < b.N; i++ {
		tab = s.Fig1Coverage(proto.HTTP)
	}
	b.ReportMetric(100*tab.Mean(origin.CEN, false), "censys-cov-%")
	b.ReportMetric(100*tab.Mean(origin.US64, false), "us64-cov-%")
}

// BenchmarkFig02MissingBreakdown regenerates Figure 2.
func BenchmarkFig02MissingBreakdown(b *testing.B) {
	s := benchStudy(b)
	var bds []analysis.Breakdown
	for i := 0; i < b.N; i++ {
		bds = s.Fig2MissingBreakdown(proto.HTTP)
	}
	var trans, total int
	for _, bd := range bds {
		trans += bd.Counts[analysis.CatTransientHost] + bd.Counts[analysis.CatTransientNet]
		total += bd.TotalMissing()
	}
	if total > 0 {
		b.ReportMetric(100*float64(trans)/float64(total), "transient-share-%")
	}
}

// BenchmarkFig03LongTermOverlap regenerates Figure 3.
func BenchmarkFig03LongTermOverlap(b *testing.B) {
	s := benchStudy(b)
	var hist []int
	for i := 0; i < b.N; i++ {
		hist = s.Fig3LongTermOverlap(proto.HTTP, origin.Set{origin.CEN})
	}
	total, single := 0, 0
	for k, n := range hist {
		total += n
		if k == 0 {
			single = n
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(single)/float64(total), "single-origin-%")
	}
}

// BenchmarkFig04ASDistribution regenerates Figure 4.
func BenchmarkFig04ASDistribution(b *testing.B) {
	s := benchStudy(b)
	var dist []analysis.ASConcentration
	for i := 0; i < b.N; i++ {
		dist = s.Fig4ASDistribution(proto.HTTP)
	}
	for _, d := range dist {
		if d.Origin == origin.CEN && len(d.TopShares) >= 3 {
			b.ReportMetric(100*d.TopShares[2], "censys-top3-as-%")
		}
	}
}

// BenchmarkFig05LostASes regenerates Figure 5.
func BenchmarkFig05LostASes(b *testing.B) {
	s := benchStudy(b)
	var rows []analysis.LostASRow
	for i := 0; i < b.N; i++ {
		rows = s.Fig5LostASes(proto.HTTP)
	}
	for _, r := range rows {
		if r.Origin == origin.BR {
			b.ReportMetric(float64(r.Full), "brazil-full-ases")
		}
	}
}

// BenchmarkFig06ExclusiveCountry regenerates Figure 6.
func BenchmarkFig06ExclusiveCountry(b *testing.B) {
	s := benchStudy(b)
	var cells []analysis.CountryCell
	for i := 0; i < b.N; i++ {
		cells = s.Fig6ExclusiveByCountry(proto.HTTP)
	}
	inCountry := 0
	for _, c := range cells {
		if c.InCountry {
			inCountry += c.Hosts
		}
	}
	b.ReportMetric(float64(inCountry), "in-country-exclusive-hosts")
}

// BenchmarkFig07ExclusiveAS regenerates Figure 7.
func BenchmarkFig07ExclusiveAS(b *testing.B) {
	s := benchStudy(b)
	var shares []analysis.ASShare
	for i := 0; i < b.N; i++ {
		shares = s.Fig7ExclusiveByAS(proto.HTTP, 3)
	}
	b.ReportMetric(float64(len(shares)), "as-share-rows")
}

// BenchmarkFig08TransientOverlap regenerates Figure 8.
func BenchmarkFig08TransientOverlap(b *testing.B) {
	s := benchStudy(b)
	var hist []int
	for i := 0; i < b.N; i++ {
		hist = s.Fig8TransientOverlap(proto.HTTP)
	}
	total, single := 0, 0
	for k, n := range hist {
		total += n
		if k == 0 {
			single = n
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(single)/float64(total), "single-origin-%")
	}
}

// BenchmarkFig09LossSpreadCDF regenerates Figure 9.
func BenchmarkFig09LossSpreadCDF(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		spreads, plain, weighted := s.Fig9LossSpread(proto.HTTP)
		_ = spreads
		_ = plain
		_ = weighted
	}
	_, plain, _ := s.Fig9LossSpread(proto.HTTP)
	zero := 0.0
	for _, p := range plain {
		if p.X == 0 {
			zero = p.F
		}
	}
	b.ReportMetric(100*zero, "ases-zero-spread-%")
}

// BenchmarkFig10LossVsDrop regenerates Figure 10.
func BenchmarkFig10LossVsDrop(b *testing.B) {
	s := benchStudy(b)
	var pts []analysis.OriginASPoint
	for i := 0; i < b.N; i++ {
		pts = s.Fig10LossVsDrop(proto.HTTP, world.ProfTelecomIT)
	}
	b.ReportMetric(float64(len(pts)), "origins-plotted")
}

// BenchmarkFig11BestWorst regenerates Figure 11.
func BenchmarkFig11BestWorst(b *testing.B) {
	s := benchStudy(b)
	var rep analysis.StabilityReport
	for i := 0; i < b.N; i++ {
		rep = s.Fig11BestWorst(proto.HTTP)
	}
	if rep.ASesConsidered > 0 {
		b.ReportMetric(100*float64(rep.Flips)/float64(rep.ASesConsidered), "flip-%")
	}
}

// BenchmarkFig12AlibabaTimeline regenerates Figure 12.
func BenchmarkFig12AlibabaTimeline(b *testing.B) {
	s := benchStudy(b)
	var tl []analysis.HourlyOutcome
	for i := 0; i < b.N; i++ {
		tl = s.Fig12AlibabaTimeline(origin.US1, 0)
	}
	resets := 0
	for _, h := range tl {
		resets += h.Reset
	}
	b.ReportMetric(float64(resets), "us1-resets")
}

// BenchmarkFig13SSHRetry regenerates Figure 13 (includes live re-grabs).
func BenchmarkFig13SSHRetry(b *testing.B) {
	s := benchStudy(b)
	var curves []experiment.RetryCurve
	for i := 0; i < b.N; i++ {
		curves, _ = s.Fig13SSHRetry(context.Background(), 3, 8)
	}
	if len(curves) > 0 && len(curves[0].Success) > 8 {
		b.ReportMetric(100*curves[0].Success[8], "retry8-success-%")
	}
}

// BenchmarkFig14SSHBreakdown regenerates Figure 14.
func BenchmarkFig14SSHBreakdown(b *testing.B) {
	s := benchStudy(b)
	var bks []analysis.SSHBreakdown
	for i := 0; i < b.N; i++ {
		bks = s.Fig14SSHCauses()
	}
	for _, bk := range bks {
		if bk.Origin == origin.US1 && bk.Missing > 0 {
			b.ReportMetric(100*float64(bk.Counts[analysis.CauseProbabilistic])/float64(bk.Missing), "probabilistic-%")
		}
	}
}

// BenchmarkFig15MultiOriginHTTP regenerates Figure 15.
func BenchmarkFig15MultiOriginHTTP(b *testing.B) {
	s := benchStudy(b)
	var levels []analysis.MultiOriginLevel
	for i := 0; i < b.N; i++ {
		levels, _ = s.Fig15MultiOrigin(context.Background(), proto.HTTP, false)
	}
	if len(levels) >= 3 {
		b.ReportMetric(100*levels[2].Median, "k3-median-cov-%")
		b.ReportMetric(100*levels[2].Sigma, "k3-sigma-%")
	}
}

// BenchmarkFig16ExclusiveHTTPSSSH regenerates Figure 16.
func BenchmarkFig16ExclusiveHTTPSSSH(b *testing.B) {
	s := benchStudy(b)
	var n int
	for i := 0; i < b.N; i++ {
		n = len(s.Fig6ExclusiveByCountry(proto.HTTPS)) + len(s.Fig6ExclusiveByCountry(proto.SSH))
	}
	b.ReportMetric(float64(n), "cells")
}

// BenchmarkFig17MultiOriginHTTPSSSH regenerates Figure 17.
func BenchmarkFig17MultiOriginHTTPSSSH(b *testing.B) {
	s := benchStudy(b)
	var httpsMed, sshMed float64
	for i := 0; i < b.N; i++ {
		lh, _ := s.Fig15MultiOrigin(context.Background(), proto.HTTPS, false)
		ls, _ := s.Fig15MultiOrigin(context.Background(), proto.SSH, false)
		httpsMed, sshMed = lh[2].Median, ls[2].Median
	}
	b.ReportMetric(100*httpsMed, "https-k3-median-%")
	b.ReportMetric(100*sshMed, "ssh-k3-median-%")
}

// BenchmarkFig18FollowUp regenerates Figure 18 + Table 4b (full re-scan of
// the follow-up world each iteration).
func BenchmarkFig18FollowUp(b *testing.B) {
	var triad, median float64
	for i := 0; i < b.N; i++ {
		_, ds, err := experiment.FollowUp(context.Background(), world.Spec{Seed: 2020, Scale: 0.00003})
		if err != nil {
			b.Fatal(err)
		}
		levels, err := analysis.MultiOrigin(context.Background(), ds, proto.HTTP, origin.FollowUpSet(), false)
		if err != nil {
			b.Fatal(err)
		}
		triad = analysis.CoverageOfCombo(ds, proto.HTTP,
			origin.Set{origin.HE, origin.NTTC, origin.TELIA}, false)
		median = levels[2].Median
	}
	b.ReportMetric(100*triad, "colocated-triad-cov-%")
	b.ReportMetric(100*median, "k3-median-cov-%")
}

// BenchmarkTab1ExclusiveShare regenerates Table 1.
func BenchmarkTab1ExclusiveShare(b *testing.B) {
	s := benchStudy(b)
	var rows []analysis.ShareRow
	for i := 0; i < b.N; i++ {
		rows = s.Tab1ExclusiveShare(proto.HTTP)
	}
	for _, r := range rows {
		if r.Origin == origin.CEN {
			b.ReportMetric(r.InaccessiblePct, "censys-inacc-share-%")
		}
	}
}

// BenchmarkTab2Countries regenerates Table 2.
func BenchmarkTab2Countries(b *testing.B) {
	s := benchStudy(b)
	var rows []analysis.CountryRow
	for i := 0; i < b.N; i++ {
		rows = s.Tab2Countries(proto.HTTP)
	}
	for _, r := range rows {
		if r.Origin == origin.CEN && r.Country == "BD" {
			b.ReportMetric(r.Pct, "censys-bd-inacc-%")
		}
	}
}

// BenchmarkTab3TransientASes regenerates Table 3.
func BenchmarkTab3TransientASes(b *testing.B) {
	s := benchStudy(b)
	var topDelta float64
	for i := 0; i < b.N; i++ {
		spreads, _, _ := s.Fig9LossSpread(proto.HTTP)
		if len(spreads) > 0 {
			topDelta = spreads[0].Delta
		}
	}
	b.ReportMetric(100*topDelta, "top-as-delta-%")
}

// BenchmarkTab4Coverage regenerates Table 4a (all protocols).
func BenchmarkTab4Coverage(b *testing.B) {
	s := benchStudy(b)
	var inter float64
	for i := 0; i < b.N; i++ {
		for _, p := range proto.All() {
			tab := s.Fig1Coverage(p)
			inter = tab.Intersection[0]
		}
	}
	b.ReportMetric(100*inter, "ssh-intersection-%")
}

// BenchmarkTab4bFollowUp regenerates Table 4b.
func BenchmarkTab4bFollowUp(b *testing.B) {
	var cen float64
	for i := 0; i < b.N; i++ {
		_, ds, err := experiment.FollowUp(context.Background(), world.Spec{Seed: 2020, Scale: 0.00003})
		if err != nil {
			b.Fatal(err)
		}
		tab := analysis.Coverage(ds, proto.HTTP)
		cen = tab.Mean(origin.CEN, false)
	}
	b.ReportMetric(100*cen, "fresh-censys-cov-%")
}

// BenchmarkTab5CountriesHTTPSSSH regenerates Table 5.
func BenchmarkTab5CountriesHTTPSSSH(b *testing.B) {
	s := benchStudy(b)
	var n int
	for i := 0; i < b.N; i++ {
		n = len(s.Tab2Countries(proto.HTTPS)) + len(s.Tab2Countries(proto.SSH))
	}
	b.ReportMetric(float64(n), "rows")
}

// BenchmarkStatMcNemar regenerates §3's pairwise tests.
func BenchmarkStatMcNemar(b *testing.B) {
	s := benchStudy(b)
	var pairs []analysis.McNemarPair
	for i := 0; i < b.N; i++ {
		pairs = s.McNemar(proto.HTTP, 0)
	}
	sig := 0
	for _, p := range pairs {
		if p.PAdjusted < 0.001 {
			sig++
		}
	}
	b.ReportMetric(float64(sig), "significant-pairs")
}

// BenchmarkStatSpearman regenerates §4.4's country-size correlation.
func BenchmarkStatSpearman(b *testing.B) {
	s := benchStudy(b)
	var rho float64
	for i := 0; i < b.N; i++ {
		rho = s.CountryCorrelation(proto.HTTP).Rho
	}
	b.ReportMetric(rho, "rho")
}

// BenchmarkSec52PacketLoss regenerates §5.2's estimator and correlation.
func BenchmarkSec52PacketLoss(b *testing.B) {
	s := benchStudy(b)
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = s.PacketLoss(proto.HTTP, origin.AU, 0).Rate
		_ = s.DropVsTransient(proto.HTTP)
	}
	b.ReportMetric(100*rate, "au-drop-%")
}

// BenchmarkSec53Bursts regenerates §5.3's burst attribution.
func BenchmarkSec53Bursts(b *testing.B) {
	s := benchStudy(b)
	var rep analysis.BurstReport
	for i := 0; i < b.N; i++ {
		rep = s.Bursts(proto.HTTP)
	}
	b.ReportMetric(100*rep.SingleOriginBursts, "single-origin-bursts-%")
}

// BenchmarkSec7Probes regenerates §7's probe statistics.
func BenchmarkSec7Probes(b *testing.B) {
	s := benchStudy(b)
	var ps analysis.ProbeStats
	for i := 0; i < b.N; i++ {
		ps = s.Probes(proto.HTTP, origin.AU, 0)
	}
	b.ReportMetric(100*ps.BothLostPortion, "both-lost-%")
}

// BenchmarkFullReport renders every table and figure once per iteration.
func BenchmarkFullReport(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		report.All(context.Background(), io.Discard, s)
	}
}

// BenchmarkEndToEndScan measures one full single-origin scan+grab cycle
// over a small world (the scanner and fabric hot path).
func BenchmarkEndToEndScan(b *testing.B) {
	st, err := experiment.NewStudy(context.Background(), experiment.Config{
		WorldSpec: world.Spec{Seed: 3, Scale: 0.00002},
		Trials:    1,
		Protocols: []proto.Protocol{proto.HTTP},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.ScanOne(context.Background(), origin.US1, proto.HTTP, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec8Agreement regenerates the §8 Heidemann comparison.
func BenchmarkSec8Agreement(b *testing.B) {
	s := benchStudy(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = s.Agreement(proto.HTTP, 0).Mean
	}
	b.ReportMetric(100*mean, "mean-agreement-%")
}

// BenchmarkSec8ProbeSweep regenerates the single-origin multi-probe curve
// (Durumeric et al. 2012 comparison), re-scanning with 1..3 probes.
func BenchmarkSec8ProbeSweep(b *testing.B) {
	s := benchStudy(b)
	var last float64
	for i := 0; i < b.N; i++ {
		pts, err := s.ProbeSweep(context.Background(), origin.US1, proto.HTTP, 0, 3, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1].Coverage
	}
	b.ReportMetric(100*last, "probes3-cov-%")
}

// BenchmarkAnalysisPasses runs the allocation-heavy analysis passes back to
// back over the shared fixture: a full classifier rebuild plus the set-algebra
// passes (coverage table, missing breakdown, exclusivity, transient spread,
// packet loss, probe stats). Run with -benchmem: the bytes/op trajectory of
// the columnar result store is recorded in BENCH_columnar.json.
func BenchmarkAnalysisPasses(b *testing.B) {
	s := benchStudy(b)
	topo := s.Topo()
	// Warm the dataset's ground-truth cache so iterations measure the
	// passes, not the first-touch union build.
	for t := 0; t < s.DS.Trials; t++ {
		s.DS.GroundTruth(proto.HTTP, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := analysis.NewClassifier(s.DS, proto.HTTP)
		_ = analysis.Coverage(s.DS, proto.HTTP)
		_ = analysis.MissingBreakdown(c)
		_ = analysis.Exclusive(c)
		_ = analysis.TransientLossSpread(c, topo, 2)
		_ = analysis.PacketLoss(s.DS, topo, proto.HTTP, origin.AU, 0, 5)
		_ = analysis.Probes(s.DS, proto.HTTP, origin.AU, 0)
	}
}

// benchStudyRun times Study.Run (world and scenario construction excluded)
// for one parallelism / shard configuration: the perf trajectory of the
// deterministic parallel scan engine. All configurations produce
// bit-identical datasets (TestParallelMatchesSerial), so these measure pure
// execution-strategy cost.
func benchStudyRun(b *testing.B, par, shards int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := experiment.NewStudy(context.Background(), experiment.Config{
			WorldSpec:   world.TestSpec(2020),
			Trials:      2,
			Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
			Origins:     origin.Set{origin.AU, origin.US1, origin.US64, origin.CEN},
			Parallelism: par,
			ScanShards:  shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := st.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudySerial runs the study on one scan worker: one scan at a
// time over the precomputed IDS plan, unsharded sweeps. (Before the serial
// live-IDS loop became test code, this timed that loop.)
func BenchmarkStudySerial(b *testing.B) { benchStudyRun(b, 1, 1) }

// BenchmarkStudyParallel{2,4,8} run the same study on 2/4/8 scan workers
// with precomputed IDS schedules.
func BenchmarkStudyParallel2(b *testing.B) { benchStudyRun(b, 2, 1) }
func BenchmarkStudyParallel4(b *testing.B) { benchStudyRun(b, 4, 1) }
func BenchmarkStudyParallel8(b *testing.B) { benchStudyRun(b, 8, 1) }

// BenchmarkStudyParallel8Sharded4 adds intra-scan sweep sharding on top of
// the 8-worker pool.
func BenchmarkStudyParallel8Sharded4(b *testing.B) { benchStudyRun(b, 8, 4) }

// benchV6StudyRun times the IPv6 hitlist study (default v6 world, ≈2.3k
// hosts + stale/unrouted hitlist tails) for one parallelism configuration.
// The v4 benchmarks above are untouched by the dual-stack core — comparing
// BenchmarkStudySerial against BENCH_fullspace.json's capture is the
// no-regression check for the 128-bit address widening.
func benchV6StudyRun(b *testing.B, par, shards int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := experiment.NewStudy(context.Background(), experiment.Config{
			WorldSpec:   world.Spec{Seed: 2020},
			Family:      world.FamilyIPv6,
			V6Spec:      world.DefaultV6Spec(2020),
			Trials:      2,
			Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
			Origins:     origin.Set{origin.AU, origin.US1, origin.US64, origin.CEN},
			Parallelism: par,
			ScanShards:  shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(st.World.Hitlist())), "hitlist-targets")
		}
		b.StartTimer()
		if _, err := st.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkV6HitlistStudySerial is the v6 study on one scan worker.
func BenchmarkV6HitlistStudySerial(b *testing.B) { benchV6StudyRun(b, 1, 1) }

// BenchmarkV6HitlistStudyParallel4 runs the same v6 study on 4 scan workers
// with 4-way sharded hitlist walks.
func BenchmarkV6HitlistStudyParallel4(b *testing.B) { benchV6StudyRun(b, 4, 4) }
