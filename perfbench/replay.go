package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/policy"
	"repro/internal/results"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/world"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

// grabWindow is the grab hand-off window of Study.Run: PredialBatch and
// AddBatch see the same batches in the replay.
const grabWindow = 4096

// ledger accumulates the replay's per-layer spans and counts.
type ledger struct {
	world, scenario         time.Duration
	fabric, send, predial   time.Duration // fabric: New + Drain
	sweep, grab             time.Duration // sweep: NewScanner + RunSharded, Send included
	store, append, seal     time.Duration // store: NewScanResult*, Dataset.Put
	flush, merge            time.Duration
	targets, probes, sends  uint64
	replies, predials       uint64
	grabs, grabOK, attempts uint64
	appended, rows          uint64
	segments                uint64
	spilled                 int64
}

// covered is the replay time inside some layer's span.
func (l *ledger) covered() time.Duration {
	return l.world + l.scenario + l.fabric + l.sweep + l.predial + l.grab + l.store + l.append + l.seal
}

// timedSink is the replay sweep's packet sink: it times every fabric.Send
// and forwards the routability capabilities, so the scanner's routed-space
// short-circuit stays on as in Study.Run. The replay sweeps unsharded, so
// the sink is single-owner.
type timedSink struct {
	fab   *fabric.Fabric
	ns    time.Duration
	calls uint64
}

func (s *timedSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	start := time.Now()
	resp := s.fab.Send(src, pkt, t)
	s.ns += time.Since(start)
	s.calls++
	return resp
}

func (s *timedSink) Routed(dst ip.Addr) bool { return s.fab.Routed(dst) }

func (s *timedSink) RoutedBatch(dst []ip.Addr, routed []bool) { s.fab.RoutedBatch(dst, routed) }

// replay rebuilds the study's world and scenario and runs every scan
// serially in canonical order through the fast-path layer functions, with
// a span around each call. The live IDSes observe the scans in study
// order — the serial schedule the parallel engine's IDS plan reproduces —
// so the sealed dataset must equal the study's digest want.
func replay(ctx context.Context, out *outcome, cfg experiment.Config, want string) error {
	start := time.Now()
	var l ledger
	t := time.Now()
	var w *world.World
	var err error
	if cfg.Family == world.FamilyIPv6 {
		spec := cfg.V6Spec
		if spec == (world.V6Spec{}) {
			spec = world.DefaultV6Spec(cfg.WorldSpec.Seed)
		}
		w, err = world.BuildV6(ctx, spec)
	} else {
		w, err = world.Build(ctx, cfg.WorldSpec)
	}
	if err != nil {
		return fmt.Errorf("replay world: %w", err)
	}
	l.world = time.Since(t)
	scfg := cfg.ScenarioConfig
	scfg.Trials = cfg.Trials
	if scfg.NumOrigins == 0 {
		scfg.NumOrigins = len(cfg.Origins)
	}
	t = time.Now()
	sc := scenario.New(w, scfg)
	l.scenario = time.Since(t)

	ds := results.NewDataset(studyOrigins(cfg), cfg.Trials)
	for _, k := range scanKeys(cfg) {
		res, err := replayScan(ctx, &l, cfg, w, sc, k)
		if err != nil {
			return fmt.Errorf("replay %v/%v/trial %d: %w", k.o, k.p, k.trial, err)
		}
		t = time.Now()
		err = ds.Put(res)
		l.store += time.Since(t)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	total := time.Since(start)

	out.attempted++
	got, _, err := digestOf(ds)
	if err != nil {
		return err
	}
	if got != want {
		out.fail("replay digest %s != study digest %s", got, want)
	}

	m := out.metrics
	m["world.build_s"] = l.world.Seconds()
	m["world.hosts"] = float64(w.NumHosts())
	m["scenario.build_s"] = l.scenario.Seconds()
	m["zmap.sweep_s"] = l.sweep.Seconds()
	m["zmap.self_s"] = (l.sweep - l.send).Seconds()
	m["zmap.targets"] = float64(l.targets)
	m["zmap.ns_per_target"] = per(float64(l.sweep.Nanoseconds()), l.targets)
	m["zmap.replies"] = float64(l.replies)
	m["zmap.reply_ratio"] = per(float64(l.replies), l.targets)
	m["fabric.send_calls"] = float64(l.sends)
	m["fabric.send_s"] = l.send.Seconds()
	m["fabric.ns_per_send"] = per(float64(l.send.Nanoseconds()), l.sends)
	m["fabric.send_ratio"] = per(float64(l.sends), l.probes)
	m["fabric.predial_s"] = l.predial.Seconds()
	m["fabric.ns_per_predial"] = per(float64(l.predial.Nanoseconds()), l.predials)
	m["zgrab.grabs"] = float64(l.grabs)
	m["zgrab.grab_s"] = l.grab.Seconds()
	m["zgrab.ns_per_grab"] = per(float64(l.grab.Nanoseconds()), l.grabs)
	m["zgrab.success_ratio"] = per(float64(l.grabOK), l.grabs)
	m["zgrab.attempts_per_grab"] = per(float64(l.attempts), l.grabs)
	m["results.append_s"] = l.append.Seconds()
	m["results.ns_per_row_append"] = per(float64(l.append.Nanoseconds()), l.appended)
	m["results.seal_s"] = l.seal.Seconds()
	m["results.rows"] = float64(l.rows)
	m["results.spill_segments"] = float64(l.segments)
	m["results.spilled_mib"] = float64(l.spilled) / (1 << 20)
	m["results.flush_s"] = l.flush.Seconds()
	m["results.merge_s"] = l.merge.Seconds()
	m["replay_s"] = total.Seconds()
	m["other_s"] = (total - l.covered()).Seconds()
	return nil
}

// per is num/den, or 0 when nothing was counted.
func per(num float64, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// replayScan is one scan of Study.Run's pipeline — sweep, windowed
// pre-dial and grab, append, seal — on the fast-path functions, serially.
func replayScan(ctx context.Context, l *ledger, cfg experiment.Config, w *world.World, sc *scenario.Scenario, k scanKey) (*results.ScanResult, error) {
	org := w.Origins.Get(k.o)
	t := time.Now()
	fab := fabric.New(&fabric.Config{
		World:      w,
		Engine:     sc.Engine,
		IDSes:      policy.Detectors(sc.IDSes),
		Loss:       sc.Loss,
		Outages:    sc.Outages[k.p],
		Churn:      sc.Churn,
		NumOrigins: len(cfg.Origins),
		Hosts:      sc.Hosts,
	}, org, k.trial)
	l.fabric += time.Since(t)

	var hitlist []ip.Addr
	if w.Family == world.FamilyIPv6 {
		hitlist = cfg.Hitlist
		if len(hitlist) == 0 {
			hitlist = w.Hitlist()
		}
	}
	numHosts := len(w.Hosts())
	t = time.Now()
	scanner, err := zmap.NewScanner(zmap.Config{
		SourceIPs:       org.SourceIPs,
		TargetPort:      k.p.Port(),
		Probes:          cfg.Probes,
		ProbeDelay:      cfg.ProbeDelay,
		SpaceBits:       w.SpaceBits,
		Hitlist:         hitlist,
		Seed:            rng.NewKey(w.Spec.Seed).Derive("scan-seed").Uint64(uint64(k.p), uint64(k.trial)),
		Shard:           cfg.Shard,
		Shards:          cfg.Shards,
		ScanDuration:    scenario.ScanDuration,
		Blocklist:       cfg.Blocklist,
		ExpectedReplies: numHosts,
	})
	if err != nil {
		return nil, err
	}
	sink := &timedSink{fab: fab}
	replies := make([]zmap.Reply, 0, numHosts)
	stats, err := scanner.RunSharded(ctx, sink, func(r zmap.Reply) { replies = append(replies, r) }, 1)
	l.sweep += time.Since(t)
	if err != nil {
		return nil, err
	}
	l.send += sink.ns
	l.sends += sink.calls
	l.targets += stats.Targets
	l.probes += stats.ProbesSent
	l.replies += uint64(len(replies))

	t = time.Now()
	var res *results.ScanResult
	if cfg.SpillDir == "" {
		res = results.NewScanResultSized(k.o, k.p, k.trial, len(replies))
	} else {
		// Study.Run splits MemBudget over the scans in flight.
		res, err = results.NewSpilledScanResult(k.o, k.p, k.trial, len(replies),
			results.SpillConfig{Dir: cfg.SpillDir, Budget: cfg.MemBudget / int64(cfg.Parallelism)})
	}
	l.store += time.Since(t)
	if err != nil {
		return nil, err
	}
	grabber := &zgrab.Grabber{
		Dialer:    fab,
		Retries:   cfg.Retries,
		Key:       rng.NewKey(w.Spec.Seed).Derive("grab").DeriveN("origin", uint64(k.o)),
		IOTimeout: 10 * time.Second,
	}
	size := min(grabWindow, len(replies))
	window := make([]results.HostRecord, size)
	preDst := make([]ip.Addr, size)
	preT := make([]time.Duration, size)
	pre := make([]zgrab.DialVerdict, size)
	preIdx := make([]int32, size)
	for base := 0; base < len(replies); base += size {
		n := min(size, len(replies)-base)
		win := window[:n]
		m := 0
		for i, r := range replies[base : base+n] {
			if r.ProbeMask == 0 {
				preIdx[i] = -1
				continue
			}
			preDst[m], preT[m], preIdx[i] = r.Dst, r.T, int32(m)
			m++
		}
		t = time.Now()
		fab.PredialBatch(preDst[:m], preT[:m], k.p.Port(), pre[:m])
		l.predial += time.Since(t)
		l.predials += uint64(m)
		for i, r := range replies[base : base+n] {
			rec := results.HostRecord{Addr: r.Dst, ProbeMask: r.ProbeMask, RST: r.RST, T: r.T}
			if r.ProbeMask != 0 {
				t = time.Now()
				g := grabber.GrabFast(ctx, k.p, r.Dst, r.T, pre[preIdx[i]])
				l.grab += time.Since(t)
				l.grabs++
				l.attempts += uint64(g.Attempts)
				if g.Success {
					l.grabOK++
				}
				rec.L7, rec.Fail, rec.Attempts, rec.Banner = g.Success, g.Fail, g.Attempts, g.Banner
			}
			win[i] = rec
		}
		t = time.Now()
		res.AddBatch(win)
		l.append += time.Since(t)
		l.appended += uint64(n)
	}

	res.Targets, res.ProbesSent, res.SynAcks, res.Rsts, res.Invalid =
		stats.Targets, stats.ProbesSent, stats.SynAcks, stats.Rsts, stats.Invalid
	t = time.Now()
	err = res.SealErr()
	l.seal += time.Since(t)
	if err != nil {
		return nil, err
	}
	rows, _ := res.SealStats()
	l.rows += uint64(rows)
	ss := res.SpillStats()
	l.segments += uint64(ss.Segments)
	l.spilled += ss.SpilledBytes
	l.flush += ss.FlushDuration
	l.merge += ss.MergeDuration

	t = time.Now()
	err = fab.Drain(ctx)
	l.fabric += time.Since(t)
	return res, err
}
