package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

// grabPathStudy runs the equivalence-shaped study (mixed IDS-relevant
// origins, HTTP+SSH so both banner families and the MaxStartups retry path
// are exercised, Carinet's trial-0 edge) at the given execution mode.
// Retries > 0 makes the per-attempt Predial re-evaluation load-bearing.
func grabPathStudy(t *testing.T, par, shards int) *results.Dataset {
	t.Helper()
	st, err := NewStudy(context.Background(), Config{
		WorldSpec:      world.Spec{Seed: 11, Scale: 0.00005},
		Trials:         2,
		Protocols:      []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:        origin.Set{origin.US1, origin.US64, origin.CEN},
		IncludeCarinet: true,
		Retries:        2,
		Parallelism:    par,
		ScanShards:     shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// referenceGrabDigest is the SHA-256 of grabPathStudy's dataset JSON as
// sealed through the goroutine-per-connection reference grab (a vconn pipe
// and a hostsim.Serve goroutine per accepted connection, one dial at a
// time), recorded before that path left the engine. Serial and
// parallel+sharded reference runs both produced it.
const referenceGrabDigest = "e40458d65362fab9ff9b1beee9b222084b617bb6f303dfb5e82578fc689ce951"

// TestGrabFastStudyMatchesReference is the sealed-dataset differential for
// the grab path: the study run one scan at a time and in parallel+sharded
// must seal the exact bytes the reference grab sealed.
func TestGrabFastStudyMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name        string
		par, shards int
	}{{"serial", 1, 1}, {"parallel+sharded", 8, 4}} {
		ds := grabPathStudy(t, tc.par, tc.shards)
		if ds.Len() == 0 {
			t.Fatalf("%s: study produced no scans", tc.name)
		}
		var buf bytes.Buffer
		if err := ds.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != referenceGrabDigest {
			t.Errorf("%s: dataset sha256 %s, want the reference path's %s", tc.name, got, referenceGrabDigest)
		}
	}
}

// cancelDialer calls cancel on its Nth ConnectFast and counts every
// ConnectFast it sees.
type cancelDialer struct {
	zgrab.Dialer
	calls  atomic.Int64
	after  int64
	cancel func()
}

func (c *cancelDialer) ConnectFast(dst ip.Addr, port uint16, v zgrab.DialVerdict) net.Conn {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Dialer.ConnectFast(dst, port, v)
}

// batchSink keeps a copy of every appended window.
type batchSink struct{ batches [][]results.HostRecord }

func (s *batchSink) Add(r results.HostRecord) { s.AddBatch([]results.HostRecord{r}) }

func (s *batchSink) AddBatch(rs []results.HostRecord) {
	s.batches = append(s.batches, append([]results.HostRecord(nil), rs...))
}

// TestGrabPassCancelMidWindow cancels the grab pass on the Nth connection,
// in the middle of a window. The pass must report the cancellation, append
// only the windows completed before it — each whole, grabbed, and equal to
// the uncanceled pass's — and every worker must stop within its one
// in-flight claim.
func TestGrabPassCancelMidWindow(t *testing.T) {
	st, err := NewStudy(context.Background(), Config{
		WorldSpec: world.Spec{Seed: 11, Scale: 0.00005},
		Trials:    1,
		Protocols: []proto.Protocol{proto.HTTP},
		Origins:   origin.Set{origin.US1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(&fabric.Config{
		World:      st.World,
		Engine:     st.Scenario.Engine,
		Loss:       st.Scenario.Loss,
		Outages:    st.Scenario.Outages[proto.HTTP],
		Churn:      st.Scenario.Churn,
		NumOrigins: 1,
		Hosts:      st.Scenario.Hosts,
	}, st.World.Origins.Get(origin.US1), 0)
	var replies []zmap.Reply
	for i, h := range st.World.Hosts() {
		replies = append(replies, zmap.Reply{Dst: h.Addr, ProbeMask: 1, T: time.Duration(i) * time.Millisecond})
	}
	const window, workers = 16, 4
	pass := func(ctx context.Context, d zgrab.Dialer, m *telemetry.GrabMetrics) (*batchSink, error) {
		gp := grabPass{
			grabber: &zgrab.Grabber{Dialer: d, Retries: 1, Key: rng.NewKey(1), Metrics: m},
			proto:   proto.HTTP,
			window:  window,
			workers: workers,
		}
		sink := &batchSink{}
		return sink, gp.run(ctx, replies, sink)
	}

	full := &cancelDialer{Dialer: fab}
	want, err := pass(context.Background(), full, nil)
	if err != nil {
		t.Fatal(err)
	}
	windows := len(want.batches)
	if windows < 4 || full.calls.Load() < 4*window {
		t.Fatalf("fixture too small: %d windows, %d connections", windows, full.calls.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every grab attempt, canceled or not, counts one dial. The counts
	// are taken once the cancellation is visible to every worker.
	m := telemetry.NewGrabMetrics(telemetry.New())
	var d *cancelDialer
	var connsAtCancel int64
	var dialsAtCancel uint64
	d = &cancelDialer{Dialer: fab, after: full.calls.Load() / 2, cancel: func() {
		cancel()
		connsAtCancel, dialsAtCancel = d.calls.Load(), m.Dials.Value()
	}}
	got, err := pass(ctx, d, m)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The worker whose connection canceled the run finishes that grab;
	// each other worker may finish the one attempt it had already begun
	// (or find its fresh claim canceled). Nothing is claimed after that.
	if n := d.calls.Load() - connsAtCancel; n > workers-1 {
		t.Errorf("%d connections after cancellation, want at most %d", n, workers-1)
	}
	if n := m.Dials.Value() - dialsAtCancel; n > workers {
		t.Errorf("%d grab attempts after cancellation, want at most one per worker (%d)", n, workers)
	}
	if len(got.batches) == 0 || len(got.batches) >= windows {
		t.Fatalf("canceled pass appended %d of %d windows, want a nonempty strict prefix", len(got.batches), windows)
	}
	for b, batch := range got.batches {
		if len(batch) != window {
			t.Fatalf("window %d appended %d records, want %d", b, len(batch), window)
		}
		for i, rec := range batch {
			if rec.Attempts == 0 {
				t.Fatalf("window %d slot %d appended ungrabbed", b, i)
			}
			if rec != want.batches[b][i] {
				t.Fatalf("window %d slot %d = %+v, uncanceled pass %+v", b, i, rec, want.batches[b][i])
			}
		}
	}
}
