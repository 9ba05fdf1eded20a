package experiment

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// equivalenceStudy prepares one full study at the given parallelism and
// shard count. The origin set deliberately mixes the IDS-relevant identities:
// single-IP origins that cross detection thresholds, the 64-IP origin that
// evades them, and Carinet's trial-0-only scan (an ordering edge case).
// Every run carries a telemetry registry, so the equivalence it proves
// covers instrumented scans: telemetry must not perturb any result.
func equivalenceStudy(t *testing.T, par, shards int) *Study {
	t.Helper()
	// Tracing runs at full tilt — hierarchy, batch exemplars, and a live
	// flight recorder streaming spans to disk — so the equivalence also
	// proves the whole observability stack is a pure observer.
	reg := telemetry.New()
	rec, err := telemetry.NewRecorder(filepath.Join(t.TempDir(), telemetry.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachRecorder(rec)
	t.Cleanup(func() {
		if err := reg.CloseRecorder(); err != nil {
			t.Errorf("closing flight recorder: %v", err)
		}
	})
	st, err := NewStudy(context.Background(), Config{
		WorldSpec:      world.Spec{Seed: 11, Scale: 0.00005},
		Trials:         2,
		Protocols:      []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:        origin.Set{origin.US1, origin.US64, origin.CEN},
		IncludeCarinet: true,
		Parallelism:    par,
		ScanShards:     shards,
		Telemetry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runStudy runs st through the engine.
func runStudy(t *testing.T, st *Study) *results.Dataset {
	t.Helper()
	ds, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// serialStudy is the study-level oracle for Run: it scans the tasks in
// canonical order — trial-major, then protocol, then origin — one at a
// time with ScanOne, so the live stateful IDSes observe every probe as
// the scans unfold, and seals each scan into the dataset as it completes.
func serialStudy(t *testing.T, st *Study) *results.Dataset {
	t.Helper()
	cfg := st.Config
	dsOrigins := cfg.Origins
	if cfg.IncludeCarinet && !dsOrigins.Contains(origin.CARINET) {
		dsOrigins = append(append(origin.Set{}, dsOrigins...), origin.CARINET)
	}
	ds := results.NewDataset(dsOrigins, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, p := range cfg.Protocols {
			for _, o := range dsOrigins {
				if o == origin.CARINET && trial != 0 {
					continue
				}
				res, err := st.ScanOne(context.Background(), o, p, trial)
				if err != nil {
					t.Fatal(err)
				}
				if err := ds.Put(res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return ds
}

// TestParallelMatchesSerial is the engine's core invariant: the same study
// config scanned serially by the test-side oracle (live stateful IDSes, one
// scan at a time, unsharded sweeps) and run by the engine (precomputed IDS
// schedules, one worker or concurrent scans, sharded sweeps) must produce
// bit-for-bit identical datasets, and must leave the live IDS machines in
// identical end states.
func TestParallelMatchesSerial(t *testing.T) {
	stSerial := equivalenceStudy(t, 1, 1)
	serial := serialStudy(t, stSerial)
	one := runStudy(t, equivalenceStudy(t, 1, 1))
	stPar := equivalenceStudy(t, 8, 1)
	par := runStudy(t, stPar)
	sharded := runStudy(t, equivalenceStudy(t, 8, 4))

	if serial.Len() == 0 {
		t.Fatal("serial study produced no scans")
	}
	if diff := serial.Diff(one); diff != "" {
		t.Errorf("Parallelism 1 differs from serial: %s", diff)
	}
	if diff := serial.Diff(par); diff != "" {
		t.Errorf("Parallelism 8 differs from serial: %s", diff)
	}
	if diff := serial.Diff(sharded); diff != "" {
		t.Errorf("Parallelism 8 + ScanShards 4 differs from serial: %s", diff)
	}

	// Sub-experiments read the live IDS state after Run; the parallel
	// engine's committed state must match the serially-mutated one.
	for i, ser := range stSerial.Scenario.IDSes {
		parIDS := stPar.Scenario.IDSes[i]
		for _, o := range stSerial.World.Origins.All() {
			for _, src := range o.SourceIPs {
				for trial := 0; trial < stSerial.Config.Trials; trial++ {
					if got, want := parIDS.BlockedState(src, trial), ser.BlockedState(src, trial); got != want {
						t.Errorf("IDS %s: blocked(%v, trial %d) = %v after parallel run, %v after serial",
							ser.RuleName, src, trial, got, want)
					}
				}
			}
		}
	}
}

// TestMonitorSetCoversMonitoredASes pins the planner's block filter: the
// /24 of every address that resolves to an IDS-monitored AS is marked, and
// the bitmap leaves out part of the space.
func TestMonitorSetCoversMonitoredASes(t *testing.T) {
	st := equivalenceStudy(t, 1, 1)
	m := st.monitorSet(st.Scenario.IDSes)
	marked := func(a uint64) bool {
		b := a >> 8
		return b>>6 < uint64(len(m.blocks)) && m.blocks[b>>6]&(1<<(b&63)) != 0
	}
	fib := st.World.FIB()
	var monitored, ruledOut uint64
	for a := uint64(0); a < st.World.SpaceSize(); a++ {
		d := fib.Resolve(ip.AddrFrom4(uint32(a)))
		if d.Routed && m.ases[d.AS.Number] {
			monitored++
			if !marked(a) {
				t.Fatalf("%v (AS%d, monitored) not in a marked block", ip.AddrFrom4(uint32(a)), d.AS.Number)
			}
		} else if !marked(a) {
			ruledOut++
		}
	}
	if monitored == 0 || ruledOut == 0 {
		t.Fatalf("monitored %d, ruled out %d of %d: want both > 0", monitored, ruledOut, st.World.SpaceSize())
	}
}
