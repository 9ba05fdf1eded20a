package fabric

import (
	"context"
	"testing"
	"time"

	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/zgrab"
)

// grabFastAllocCeiling is the per-protocol allocation budget of one served
// fast-path grab: client encode, inline serve, client decode and Result,
// with the pools warm. What is left is what must outlive the grab or be a
// string: the HTTP banner (the Server header, copied out of the pooled
// response), the server's SSH identification line (converted once; the
// banner is a substring of it) and the client's line as the inline server
// reads it. A TLS banner is a constant cipher-suite name.
var grabFastAllocCeiling = map[proto.Protocol]float64{
	proto.HTTP:  1,
	proto.HTTPS: 0,
	proto.SSH:   2,
}

// TestGrabFastAllocs is the L7 exchange's allocation guard: one served
// HTTP, HTTPS and SSH grab on the fast path must stay under its ceiling
// once the pools are warm (not checked under the race detector, whose
// sync.Pool drops Puts). It also checks that banners returned earlier
// never alias pooled buffers: 1k banners kept from earlier grabs must be
// unchanged after further grabs have recycled every pool.
func TestGrabFastAllocs(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	g := &zgrab.Grabber{Dialer: fab, Key: rng.NewKey(3)}
	ctx := context.Background()

	for _, p := range proto.All() {
		dst, _ := pickHost(t, w, p)
		grab := func() zgrab.Result {
			v := fab.Predial(dst, p.Port(), time.Hour, 0)
			return g.GrabFast(ctx, p, dst, time.Hour, v)
		}
		if res := grab(); !res.Success || res.Banner == "" {
			t.Fatalf("%v: warm-up grab of %v failed: %+v", p, dst, res)
		}
		allocs := testing.AllocsPerRun(200, func() { grab() })
		t.Logf("%v: %.1f allocs per served grab", p, allocs)
		if !raceEnabled && allocs > grabFastAllocCeiling[p] {
			t.Errorf("%v: %.1f allocs per served grab, ceiling %.0f", p, allocs, grabFastAllocCeiling[p])
		}
	}

	type kept struct {
		p      proto.Protocol
		banner string
		want   string
	}
	var banners []kept
	hosts := w.Hosts()
	for i := 0; len(banners) < 1000 && i < 100*len(hosts); i++ {
		p := proto.All()[i%len(proto.All())]
		h := hosts[i%len(hosts)].Addr
		res := g.GrabFast(ctx, p, h, time.Hour, fab.Predial(h, p.Port(), time.Hour, 0))
		if res.Success {
			banners = append(banners, kept{p, res.Banner, string([]byte(res.Banner))})
		}
	}
	if len(banners) < 1000 {
		t.Fatalf("only %d successful grabs to keep", len(banners))
	}
	for i := 0; i < 3*len(hosts); i++ {
		p := proto.All()[i%len(proto.All())]
		h := hosts[(i*7)%len(hosts)].Addr
		g.GrabFast(ctx, p, h, time.Hour, fab.Predial(h, p.Port(), time.Hour, 0))
	}
	for i, b := range banners {
		if b.banner != b.want {
			t.Fatalf("banner %d (%v) changed after pool reuse: %q, was %q", i, b.p, b.banner, b.want)
		}
	}
}
