package zmap

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// sweepBatch is how many scan positions a sweep advances between context
// checks. Cancellation therefore lands within one batch per goroutine: a
// canceled sweep stops after at most sweepBatch further targets instead of
// walking the rest of the address space. The check is a pure read, so an
// uncancelled sweep emits a bit-identical schedule.
const sweepBatch = 4096

// PacketSink is the transport the scanner sends probes through. The
// simulation fabric implements it; a raw-socket implementation would attach
// at the same seam for scans of real networks. The simulated network is
// instantaneous, so Send synchronously returns the response packet bytes
// elicited by the probe (nil when the probe or its response was dropped).
//
// The probe buffer is reused between Send calls: pkt is only valid for the
// duration of the call, and implementations that keep packet bytes (pcap
// tees) must copy them. When a scan runs sharded (RunSharded), Send is
// called from multiple goroutines concurrently and implementations must be
// safe for concurrent use.
type PacketSink interface {
	Send(src ip.Addr, pkt []byte, t time.Duration) []byte
}

// Routability is an optional PacketSink capability: a sink that knows the
// announced address space ahead of time (the simulation fabric's sparse
// FIB; a real deployment's routing-table snapshot) exposes it so the sweep
// can skip the SYN encode and Send round trip for destinations that can
// never answer. The scanner still counts the skipped probes in Stats and
// telemetry exactly as if they had been sent and lost into the void, so
// statistics, metrics, and loss accounting are identical with or without
// the short-circuit. Routed must be safe for concurrent use and must agree
// with Send: an address reported unrouted must be one Send answers with
// silence before any observable side effect (IDS counting, pcap capture).
// Wrapper sinks that need to observe every probe (the pcap tee) simply do
// not implement Routability.
type Routability interface {
	Routed(dst ip.Addr) bool
}

// BatchRoutability is the batch form of Routability: fill routed[i] with
// Routed(dst[i]) for a whole sweep batch in one call, letting the sink reuse
// lookup state across consecutive addresses (the FIB keeps its last block
// decode hot). len(routed) == len(dst); both slices are caller-owned and
// only valid for the duration of the call. Implementations must be safe for
// concurrent use and must agree with Routed answer-for-answer — the sweep
// treats the two as interchangeable.
type BatchRoutability interface {
	RoutedBatch(dst []ip.Addr, routed []bool)
}

// Config configures one scan.
type Config struct {
	// SourceIPs are the scanner's source addresses; probes rotate over
	// them by target (US64 scans with a /26, everyone else with one).
	SourceIPs []ip.Addr
	// SourcePortBase is the first source port; probe i of a target uses
	// SourcePortBase+i so responses attribute to the probe that
	// elicited them (ZMap uses its source-port range the same way).
	SourcePortBase uint16
	// TargetPort is the scanned TCP port.
	TargetPort uint16
	// Probes is the number of SYNs per target (the paper sends 2).
	Probes int
	// ProbeDelay spaces the probes to one target apart in time instead
	// of sending them back-to-back; the paper's §7 recommends this
	// (after Bano et al.) because consecutive probes share loss fate.
	ProbeDelay time.Duration
	// SpaceBits sizes the scanned address space (2^SpaceBits addresses).
	// Ignored when Hitlist is set.
	SpaceBits uint8
	// Hitlist, when non-empty, switches the scan from a space sweep to a
	// hitlist scan: the targets are exactly the listed addresses (any
	// family), visited in a seed-determined permuted order, with the
	// virtual clock spread over the list instead of the space. This is
	// the IPv6 scan strategy — a 2^128 permutation sweep is meaningless,
	// so v6 scanning is driven by externally gathered target lists. The
	// slice is not copied; callers must not modify it during the scan.
	Hitlist []ip.Addr
	// Seed drives the permutation and validation cookies. Synchronized
	// scans share the seed so all origins probe the same target at the
	// same scan position.
	Seed uint64
	// Shard / Shards split the scan across processes.
	Shard, Shards int
	// ScanDuration is the virtual wall-clock length of the scan; target
	// k is probed at k/targets × ScanDuration, modelling a constant
	// probe rate (the paper scans at 100Kpps for ~21 hours).
	ScanDuration time.Duration
	// Blocklist addresses are never probed (the paper excludes 17.8M
	// addresses by request); Allowlist, when non-nil, restricts the scan
	// to its prefixes.
	Blocklist *ip.Set
	Allowlist *ip.Set
	// ExpectedReplies sizes reply buffers up front (0 = no hint).
	ExpectedReplies int
	// Telemetry, when set, receives live sweep counters. The sweep
	// accumulates into its private Stats as always and flushes deltas
	// into these counters once per sweepBatch positions (and once at
	// sweep end), so the per-probe hot path is unchanged and a nil
	// bundle costs one pointer check per batch. Counters are atomic:
	// sharded sweeps flush concurrently into the same bundle.
	Telemetry *telemetry.SweepMetrics
}

func (c *Config) validate() error {
	if len(c.SourceIPs) == 0 {
		return pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("zmap: no source IPs"))
	}
	if c.Probes <= 0 {
		return pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("zmap: probes must be positive"))
	}
	if c.ScanDuration <= 0 {
		return pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("zmap: scan duration must be positive"))
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.SourcePortBase == 0 {
		c.SourcePortBase = 40000
	}
	return nil
}

// Reply is one validated response from a live host.
type Reply struct {
	Dst ip.Addr
	// ProbeMask has bit i set when probe i elicited a valid SYN-ACK.
	ProbeMask uint8
	// RST is true when the host answered with RST (port closed or
	// administratively refused) instead of SYN-ACK.
	RST bool
	// T is the virtual time the host was probed.
	T time.Duration
}

// Stats summarizes a completed scan.
type Stats struct {
	Targets    uint64 // addresses probed (after lists)
	Blocked    uint64 // addresses skipped by blocklist/allowlist
	ProbesSent uint64
	SynAcks    uint64 // valid SYN-ACK packets received
	Rsts       uint64 // valid RST packets received
	Invalid    uint64 // responses failing cookie/port validation
	Duplicates uint64 // extra SYN-ACKs beyond the first per target
}

// statsFlusher pushes Stats deltas into a scan's telemetry counters at
// sweep-batch granularity. Each sweep goroutine owns one flusher (the
// `last` snapshot is goroutine-local); the counters themselves are atomic,
// so concurrent shard flushes into one SweepMetrics bundle are safe. A nil
// flusher or bundle is a no-op, keeping the disabled-telemetry sweep free
// of per-event work.
type statsFlusher struct {
	m    *telemetry.SweepMetrics
	last Stats
}

// flush publishes the counters accumulated since the previous flush.
func (f *statsFlusher) flush(st *Stats) {
	if f == nil || f.m == nil {
		return
	}
	m, d := f.m, *st
	m.Targets.Add(d.Targets - f.last.Targets)
	m.Blocked.Add(d.Blocked - f.last.Blocked)
	m.ProbesSent.Add(d.ProbesSent - f.last.ProbesSent)
	m.SynAcks.Add(d.SynAcks - f.last.SynAcks)
	m.Rsts.Add(d.Rsts - f.last.Rsts)
	m.Invalid.Add(d.Invalid - f.last.Invalid)
	m.Duplicates.Add(d.Duplicates - f.last.Duplicates)
	// A probe whose response never arrived is the scanner-visible loss
	// class: sent minus every validated or invalid response.
	lost := d.ProbesSent - d.SynAcks - d.Rsts - d.Invalid
	lastLost := f.last.ProbesSent - f.last.SynAcks - f.last.Rsts - f.last.Invalid
	m.Lost.Add(lost - lastLost)
	f.last = d
}

// add accumulates another shard's counters.
func (s *Stats) add(o Stats) {
	s.Targets += o.Targets
	s.Blocked += o.Blocked
	s.ProbesSent += o.ProbesSent
	s.SynAcks += o.SynAcks
	s.Rsts += o.Rsts
	s.Invalid += o.Invalid
	s.Duplicates += o.Duplicates
}

// Scanner performs one scan per Run call.
type Scanner struct {
	cfg      Config
	perm     *Permutation
	hitlist  []ip.Addr // non-nil for hitlist scans
	key      rng.Key
	validate rng.SipKey // cookie key, derived once (hot path)
	trace    *telemetry.Span
}

// SetTraceSpan attaches the sweep-stage trace span the next Run/RunSharded
// reports into: per-batch "sweep_batch" exemplars become its children
// (bounded sampling) and the sweep's target/unrouted totals its
// attributes. A nil span (tracing off) keeps the sweep untraced at the
// cost of nil checks at batch granularity. Not safe to call mid-Run.
func (s *Scanner) SetTraceSpan(sp *telemetry.Span) { s.trace = sp }

// NewScanner validates the config and prepares the permutation.
func NewScanner(cfg Config) (*Scanner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	key := rng.NewKey(cfg.Seed).Derive("zmap")
	var perm *Permutation
	var err error
	if len(cfg.Hitlist) > 0 {
		perm, err = NewPermutationN(key, uint64(len(cfg.Hitlist)), cfg.Shard, cfg.Shards)
	} else {
		perm, err = NewPermutation(key, cfg.SpaceBits, cfg.Shard, cfg.Shards)
	}
	if err != nil {
		return nil, err
	}
	return &Scanner{cfg: cfg, perm: perm, hitlist: cfg.Hitlist, key: key,
		validate: key.Derive("validate").Sip()}, nil
}

// cookie computes the validation value embedded in the probe's sequence
// number: a keyed hash of the flow 4-tuple, so responses can be validated
// statelessly (ZMap's core trick).
func (s *Scanner) cookie(src, dst ip.Addr, srcPort uint16) uint32 {
	if dst.Is4() {
		// The v4 flow word is the historical layout; changing it would
		// change every probe's sequence number and break byte-identity.
		return uint32(rng.SipHash24Words(s.validate,
			uint64(src.V4())<<32|uint64(dst.V4()), uint64(srcPort)<<16|uint64(s.cfg.TargetPort)))
	}
	return uint32(rng.SipHash24Words(s.validate,
		src.Hi()^dst.Lo(), src.Lo()^dst.Hi(), dst.Lo(),
		uint64(srcPort)<<16|uint64(s.cfg.TargetPort)))
}

// srcFor picks the source IP for a target.
func (s *Scanner) srcFor(dst ip.Addr) ip.Addr {
	return origin.SourceFor(s.cfg.SourceIPs, dst)
}

// emitTarget applies the allow/blocklists and the virtual clock for the
// address at the given 1-based scan position, invoking emit for targets
// that will be probed. This is the reference definition of the scan
// schedule — one address, one position, one decision. The batched
// filterBatch must agree with it answer-for-answer (the differential tests
// replay sweeps through this function), and the virtual-clock expression
// here and in filterBatch must stay textually identical: float64 rounding
// is part of the schedule's bit-identity contract.
func (s *Scanner) emitTarget(a uint32, position uint64, st *Stats, emit func(ip.Addr, time.Duration)) {
	dst := ip.AddrFrom4(a)
	if s.cfg.Allowlist != nil && !s.cfg.Allowlist.Contains(dst) {
		st.Blocked++
		return
	}
	if s.cfg.Blocklist != nil && s.cfg.Blocklist.Contains(dst) {
		st.Blocked++
		return
	}
	st.Targets++
	t := time.Duration(float64(position) / float64(s.perm.Space()) * float64(s.cfg.ScanDuration))
	emit(dst, t)
}

// sweepKernel is the caller-owned batch state for one sweep goroutine: the
// permutation fills addrs (and, sharded, elems), filterBatch compacts the
// surviving targets into dsts/times via pos, and the routability pass fills
// routed. One kernel is a single ~130 KiB allocation reused for the whole
// sweep, so the per-address cost is array writes — no per-batch allocation,
// no interface calls inside the batch.
type sweepKernel struct {
	idxs   [sweepBatch]uint64
	raw    [sweepBatch]ip.Addr
	addrs  [sweepBatch]uint32
	elems  [sweepBatch]uint64
	pos    [sweepBatch]uint64
	dsts   [sweepBatch]ip.Addr
	times  [sweepBatch]time.Duration
	routed [sweepBatch]bool
}

// filterBatch is emitTarget over a batch: it applies the allow/blocklists
// to addrs, assigns each survivor its virtual probe time from the 1-based
// scan position in pos, and compacts survivors into k.dsts/k.times,
// returning how many survived. The list checks, counter updates, and clock
// expression are exactly emitTarget's, just unrolled across the batch so
// the Set lookups and float math run without closure dispatch per address.
func (s *Scanner) filterBatch(addrs []uint32, pos []uint64, st *Stats, k *sweepKernel) int {
	allow, block := s.cfg.Allowlist, s.cfg.Blocklist
	space, dur := float64(s.perm.Space()), float64(s.cfg.ScanDuration)
	kept := 0
	for i, a := range addrs {
		dst := ip.AddrFrom4(a)
		if allow != nil && !allow.Contains(dst) {
			st.Blocked++
			continue
		}
		if block != nil && block.Contains(dst) {
			st.Blocked++
			continue
		}
		st.Targets++
		k.dsts[kept] = dst
		k.times[kept] = time.Duration(float64(pos[i]) / space * dur)
		kept++
	}
	return kept
}

// filterAddrBatch is filterBatch over targets that are already full
// addresses — the hitlist path, where the iterator hands out list entries
// instead of v4 space offsets. Checks, counters, and the virtual-clock
// expression are exactly filterBatch's; for a hitlist scan perm.Space() is
// the list length, so the clock spreads the scan over the list.
func (s *Scanner) filterAddrBatch(dsts []ip.Addr, pos []uint64, st *Stats, k *sweepKernel) int {
	allow, block := s.cfg.Allowlist, s.cfg.Blocklist
	space, dur := float64(s.perm.Space()), float64(s.cfg.ScanDuration)
	kept := 0
	for i, dst := range dsts {
		if allow != nil && !allow.Contains(dst) {
			st.Blocked++
			continue
		}
		if block != nil && block.Contains(dst) {
			st.Blocked++
			continue
		}
		st.Targets++
		k.dsts[kept] = dst
		k.times[kept] = time.Duration(float64(pos[i]) / space * dur)
		kept++
	}
	return kept
}

// routedBatch fills k.routed for the first kept destinations from whatever
// routability the sink offers: the batch interface when available, the
// per-address one otherwise, all-routed when the sink has neither.
func routedBatch(brt BatchRoutability, rt Routability, k *sweepKernel, kept int) {
	switch {
	case brt != nil:
		brt.RoutedBatch(k.dsts[:kept], k.routed[:kept])
	case rt != nil:
		for i := 0; i < kept; i++ {
			k.routed[i] = rt.Routed(k.dsts[i])
		}
	default:
		for i := 0; i < kept; i++ {
			k.routed[i] = true
		}
	}
}

// sweep walks this scanner's whole shard through the batched kernel,
// invoking emit once per batch with the compacted targets and probe times.
// The permutation walk, context check, and telemetry flush all amortize to
// once per sweepBatch addresses; a canceled sweep returns
// pipeline.ErrCanceled with the walk stopped at a batch boundary — the same
// boundaries the old per-address loop checked at, so cancellation is
// observably identical.
func (s *Scanner) sweep(ctx context.Context, st *Stats, fl *statsFlusher, k *sweepKernel, emit func(dsts []ip.Addr, times []time.Duration)) error {
	if s.hitlist != nil {
		return s.sweepHitlist(ctx, st, fl, k, emit)
	}
	it := s.perm.Iterate()
	var position uint64
	for {
		if err := ctx.Err(); err != nil {
			fl.flush(st)
			return pipeline.Canceled(err)
		}
		fl.flush(st)
		n := it.NextBatch(k.addrs[:])
		if n == 0 {
			fl.flush(st)
			return nil
		}
		for i := 0; i < n; i++ {
			k.pos[i] = position + uint64(i) + 1
		}
		position += uint64(n)
		if kept := s.filterBatch(k.addrs[:n], k.pos[:n], st, k); kept > 0 {
			emit(k.dsts[:kept], k.times[:kept])
		}
		if n < sweepBatch {
			// Partial batch: the walk is exhausted. The per-address loop
			// only re-checked ctx at exact sweepBatch boundaries, so finish
			// without another check to keep cancellation bit-identical.
			fl.flush(st)
			return nil
		}
	}
}

// sweepHitlist is sweep over a hitlist: identical batching, positions,
// cancellation, and telemetry cadence, with the permutation walking list
// indices instead of space offsets.
func (s *Scanner) sweepHitlist(ctx context.Context, st *Stats, fl *statsFlusher, k *sweepKernel, emit func(dsts []ip.Addr, times []time.Duration)) error {
	it := s.perm.IterateHitlist(s.hitlist)
	var position uint64
	for {
		if err := ctx.Err(); err != nil {
			fl.flush(st)
			return pipeline.Canceled(err)
		}
		fl.flush(st)
		n := it.NextBatch(k.raw[:], k.idxs[:])
		if n == 0 {
			fl.flush(st)
			return nil
		}
		for i := 0; i < n; i++ {
			k.pos[i] = position + uint64(i) + 1
		}
		position += uint64(n)
		if kept := s.filterAddrBatch(k.raw[:n], k.pos[:n], st, k); kept > 0 {
			emit(k.dsts[:kept], k.times[:kept])
		}
		if n < sweepBatch {
			fl.flush(st)
			return nil
		}
	}
}

// Targets invokes fn for every address the scan will probe, in scan order,
// with its base virtual probe time — the scan's schedule without sending a
// packet. The deterministic parallel engine uses this to precompute IDS
// detection points before scans of the same seed run concurrently.
func (s *Scanner) Targets(ctx context.Context, fn func(dst ip.Addr, t time.Duration)) error {
	var st Stats
	k := new(sweepKernel)
	return s.sweep(ctx, &st, nil, k, func(dsts []ip.Addr, times []time.Duration) {
		for i := range dsts {
			fn(dsts[i], times[i])
		}
	})
}

// probeTarget sends the configured probes for one target, validates the
// responses, and reports the target's reply. synBuf is reused across calls
// to keep the per-probe hot path allocation-free. Routedness is evaluated
// per batch before this runs; callers count unrouted targets as
// sent-and-lost without calling it.
func (s *Scanner) probeTarget(sink PacketSink, dst ip.Addr, t time.Duration, st *Stats, synBuf *[]byte) (Reply, bool) {
	reply := Reply{Dst: dst, T: t}
	src := s.srcFor(dst)
	for probe := 0; probe < s.cfg.Probes; probe++ {
		srcPort := s.cfg.SourcePortBase + uint16(probe)
		seq := s.cookie(src, dst, srcPort)
		*synBuf = packet.MakeSYNInto(*synBuf, src, dst, srcPort, s.cfg.TargetPort, seq, uint16(probe))
		st.ProbesSent++
		resp := sink.Send(src, *synBuf, t+time.Duration(probe)*s.cfg.ProbeDelay)
		if resp == nil {
			continue
		}
		ok, rst := s.validateResp(resp, src, dst, srcPort, seq)
		if !ok {
			st.Invalid++
			continue
		}
		if rst {
			st.Rsts++
			reply.RST = true
			continue
		}
		st.SynAcks++
		if reply.ProbeMask != 0 {
			st.Duplicates++
		}
		reply.ProbeMask |= 1 << probe
	}
	return reply, reply.ProbeMask != 0 || reply.RST
}

// Run executes the scan against sink, invoking handler for every target
// that sent at least one valid response. Probes for one target are sent
// back-to-back, as ZMap does; the virtual clock advances linearly with scan
// position. Cancelling ctx stops the sweep within one batch; the returned
// statistics then cover only the probes actually sent, and the error
// matches pipeline.ErrCanceled.
func (s *Scanner) Run(ctx context.Context, sink PacketSink, handler func(Reply)) (Stats, error) {
	var st Stats
	var synBuf []byte
	var fl *statsFlusher
	if s.cfg.Telemetry != nil {
		fl = &statsFlusher{m: s.cfg.Telemetry}
	}
	rt, _ := sink.(Routability)
	brt, _ := sink.(BatchRoutability)
	k := new(sweepKernel)
	probes := uint64(s.cfg.Probes)
	var unrouted uint64
	bt := s.trace.ChildTracer("sweep_batch")
	err := s.sweep(ctx, &st, fl, k, func(dsts []ip.Addr, times []time.Duration) {
		bt.Begin()
		routedBatch(brt, rt, k, len(dsts))
		var u uint64
		for i := range dsts {
			if !k.routed[i] {
				// Unrouted space: count the probes as sent and lost
				// without the encode/Send round trip — exactly what
				// sending them would have produced.
				st.ProbesSent += probes
				u++
				continue
			}
			if r, ok := s.probeTarget(sink, dsts[i], times[i], &st, &synBuf); ok {
				handler(r)
			}
		}
		if u > 0 {
			unrouted += u
			if s.cfg.Telemetry != nil {
				s.cfg.Telemetry.Unrouted.Add(u)
			}
		}
		bt.End(telemetry.A("targets", int64(len(dsts))), telemetry.A("unrouted", int64(u)))
	})
	if s.trace != nil {
		s.trace.SetAttr("targets", int64(st.Targets))
		s.trace.SetAttr("unrouted", int64(unrouted))
	}
	return st, err
}

// RunSharded executes the scan as n concurrent goroutine shards over
// disjoint slices of the permutation, then merges the shards' statistics
// and replies deterministically. Each address receives the same probe time
// (and therefore the same loss, outage, and IDS treatment) as under Run:
// sub-shard j of n walks the cosets g^(shard + shards·j) with stride
// g^(shards·n), and each element's serial scan position is recovered from
// its walk index and the permutation's out-of-space skip table. handler is
// invoked sequentially, in the serial scan's emission order.
//
// Cancellation lands within one sweep batch per shard: each shard checks
// ctx every sweepBatch walk positions and stops; the merged handler pass is
// skipped and the error matches pipeline.ErrCanceled.
func (s *Scanner) RunSharded(ctx context.Context, sink PacketSink, handler func(Reply), n int) (Stats, error) {
	if n <= 1 {
		return s.Run(ctx, sink, handler)
	}
	skips := s.perm.SkipIndices()
	subs := make([]*Permutation, n)
	for j := range subs {
		sub, err := NewPermutationN(s.key, s.perm.Space(), s.cfg.Shard+s.cfg.Shards*j, s.cfg.Shards*n)
		if err != nil {
			return Stats{}, fmt.Errorf("zmap: sub-shard %d/%d: %w", j, n, err)
		}
		subs[j] = sub
	}
	type shardOut struct {
		st       Stats
		unrouted uint64
		replies  []Reply
	}
	outs := make([]shardOut, n)
	hint := s.cfg.ExpectedReplies/n + 64
	rt, _ := sink.(Routability)
	brt, _ := sink.(BatchRoutability)
	probes := uint64(s.cfg.Probes)
	var wg sync.WaitGroup
	for j := range subs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			o := &outs[j]
			o.replies = make([]Reply, 0, hint)
			var synBuf []byte
			var fl *statsFlusher
			if s.cfg.Telemetry != nil {
				// Per-shard flusher: the delta snapshot is goroutine-local,
				// the destination counters are atomic and shared.
				fl = &statsFlusher{m: s.cfg.Telemetry}
				defer func() { fl.flush(&o.st) }()
			}
			// Per-shard exemplar tracer (single-goroutine state, like the
			// flusher); the shard label keeps shard timelines apart.
			bt := s.trace.ChildTracer("sweep_batch", telemetry.L("shard", strconv.Itoa(j)))
			k := new(sweepKernel)
			it := subs[j].Iterate()
			var hit *HitlistIterator
			if s.hitlist != nil {
				hit = subs[j].IterateHitlist(s.hitlist)
			}
			// Parent walk indices increase strictly within a sub-shard, so
			// a linear cursor into the sorted skip table replaces the
			// per-address binary search of skipsBefore.
			skipCur := uint64(0)
			for {
				if ctx.Err() != nil {
					return
				}
				fl.flush(&o.st)
				var bn int
				if hit != nil {
					bn = hit.NextIndexedBatch(k.raw[:], k.idxs[:], k.elems[:])
				} else {
					bn = it.NextIndexedBatch(k.addrs[:], k.elems[:])
				}
				if bn == 0 {
					return
				}
				for i := 0; i < bn; i++ {
					// The element's index in the parent (unsplit) walk, and
					// from it the serial scan position: elements before it
					// minus those the serial walk would have skipped.
					parent := uint64(j) + uint64(n)*k.elems[i]
					for skipCur < uint64(len(skips)) && skips[skipCur] < parent {
						skipCur++
					}
					k.pos[i] = parent + 1 - skipCur
				}
				var kept int
				if hit != nil {
					kept = s.filterAddrBatch(k.raw[:bn], k.pos[:bn], &o.st, k)
				} else {
					kept = s.filterBatch(k.addrs[:bn], k.pos[:bn], &o.st, k)
				}
				bt.Begin()
				routedBatch(brt, rt, k, kept)
				var u uint64
				for i := 0; i < kept; i++ {
					if !k.routed[i] {
						o.st.ProbesSent += probes
						u++
						continue
					}
					if r, ok := s.probeTarget(sink, k.dsts[i], k.times[i], &o.st, &synBuf); ok {
						o.replies = append(o.replies, r)
					}
				}
				if u > 0 {
					o.unrouted += u
					if s.cfg.Telemetry != nil {
						s.cfg.Telemetry.Unrouted.Add(u)
					}
				}
				bt.End(telemetry.A("targets", int64(kept)), telemetry.A("unrouted", int64(u)))
				if bn < sweepBatch {
					// Partial batch: walk exhausted; match the per-address
					// loop, which only re-checked ctx at exact boundaries.
					return
				}
			}
		}(j)
	}
	wg.Wait()

	var st Stats
	total := 0
	var unrouted uint64
	for i := range outs {
		st.add(outs[i].st)
		unrouted += outs[i].unrouted
		total += len(outs[i].replies)
	}
	if s.trace != nil {
		s.trace.SetAttr("targets", int64(st.Targets))
		s.trace.SetAttr("unrouted", int64(unrouted))
		s.trace.SetAttr("shards", int64(n))
	}
	if err := ctx.Err(); err != nil {
		// The shards stopped at different positions; a partial merge would
		// not reproduce any serial prefix, so the canceled sweep reports
		// its statistics but hands the caller no replies.
		return st, pipeline.Canceled(err)
	}
	merged := make([]Reply, 0, total)
	for i := range outs {
		merged = append(merged, outs[i].replies...)
	}
	// Probe times increase strictly with scan position, so sorting by
	// (T, Dst) reproduces the serial emission order exactly.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].T != merged[j].T {
			return merged[i].T < merged[j].T
		}
		return merged[i].Dst.Less(merged[j].Dst)
	})
	for _, r := range merged {
		handler(r)
	}
	return st, nil
}

// validateResp checks a response packet against the probe's cookie, exactly
// as ZMap validates: correct 4-tuple and ack == seq+1 for SYN-ACKs; RSTs
// may ack either seq+0 or seq+1 (stacks differ). Headers decode into stack
// scratch, so validating a reply allocates nothing.
func (s *Scanner) validateResp(resp []byte, src, dst ip.Addr, srcPort uint16, seq uint32) (ok, rst bool) {
	if !dst.Is4() {
		return s.validateResp6(resp, src, dst, srcPort, seq)
	}
	var iph packet.IPv4Header
	var tcph packet.TCPHeader
	if _, err := packet.DecodeTCP4Into(&iph, &tcph, resp); err != nil {
		return false, false
	}
	if iph.Src != dst || iph.Dst != src {
		return false, false
	}
	if tcph.SrcPort != s.cfg.TargetPort || tcph.DstPort != srcPort {
		return false, false
	}
	if tcph.HasFlag(packet.FlagRST) {
		if tcph.Ack != seq && tcph.Ack != seq+1 {
			return false, false
		}
		return true, true
	}
	if !tcph.HasFlag(packet.FlagSYN | packet.FlagACK) {
		return false, false
	}
	if tcph.Ack != seq+1 {
		return false, false
	}
	return true, false
}

// validateResp6 is validateResp for IPv6 probes: stack-decoded headers (the
// zero-alloc v6 decode path), then the same flow and cookie checks.
func (s *Scanner) validateResp6(resp []byte, src, dst ip.Addr, srcPort uint16, seq uint32) (ok, rst bool) {
	var iph packet.IPv6Header
	var tcph packet.TCPHeader
	if _, err := packet.DecodeTCP6Into(&iph, &tcph, resp); err != nil {
		return false, false
	}
	if iph.Src != dst || iph.Dst != src {
		return false, false
	}
	if tcph.SrcPort != s.cfg.TargetPort || tcph.DstPort != srcPort {
		return false, false
	}
	if tcph.HasFlag(packet.FlagRST) {
		if tcph.Ack != seq && tcph.Ack != seq+1 {
			return false, false
		}
		return true, true
	}
	if !tcph.HasFlag(packet.FlagSYN | packet.FlagACK) {
		return false, false
	}
	if tcph.Ack != seq+1 {
		return false, false
	}
	return true, false
}
