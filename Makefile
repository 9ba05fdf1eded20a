# CI entry points. `make ci` is what every PR must pass: vet, build, the
# full test suite, and the race detector over the concurrent engine paths
# (internal packages run reduced-scale worlds, so the race pass stays fast).

GO ?= go

.PHONY: all ci vet build test race test-v6 bench bench-telemetry bench-trace bench-sweep bench-fullspace bench-parallel bench-scale1 bench-v6 bench-grab

all: ci

ci: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# The IPv6 surface under the race detector: the dual-stack address core,
# hitlist iterator, seeded v6 world, v6 packet paths, and the end-to-end v6
# study differentials (deterministic, parallel-vs-serial, hitlist-only).
test-v6:
	$(GO) test -race -run 'V6|Hitlist|ParseFamily|IPv6' ./internal/ip/ ./internal/packet/ ./internal/world/ ./internal/zmap/ ./internal/results/ ./internal/experiment/

# Perf trajectory of the parallel scan engine and the columnar result
# store; results are recorded in BENCH_parallel.json and
# BENCH_columnar.json.
bench:
	$(GO) test -run xxx -bench 'BenchmarkStudy|BenchmarkAnalysisPasses' -benchtime 3x -benchmem .

# Telemetry overhead on the sweep hot path: the same full sweep with a nil
# metric bundle vs a live registry. The enabled/nil ratio is the number the
# tentpole budget caps at 5%; results land in BENCH_telemetry.json.
bench-telemetry:
	$(GO) test -run xxx -bench 'BenchmarkSweepTelemetry' -benchtime 2s -benchmem ./internal/zmap/ | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench BenchmarkSweepTelemetry -benchtime 2s ./internal/zmap/" \
	        -note "Full 2^14-address sweep against a null sink. Nil = telemetry disabled (one pointer check per 4096-target batch); Enabled = live registry receiving batched delta flushes. Overhead budget: enabled <= 5% over nil." \
	        -out BENCH_telemetry.json

# Hierarchical tracing overhead on the sweep hot path: the same full sweep
# with tracing disabled (nil registry → inert spans) vs enabled (scan span,
# bounded batch exemplars, span commit). benchjson's ratio gate fails the
# target when the enabled run exceeds nil by more than 5% — the observability
# tentpole's overhead contract, enforced by CI's trace job. Results land in
# BENCH_trace.json.
bench-trace:
	$(GO) test -run xxx -bench 'BenchmarkSweepTrace' -benchtime 2s -count 3 -benchmem ./internal/zmap/ | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench BenchmarkSweepTrace -benchtime 2s -count 3 ./internal/zmap/" \
	        -note "Full 2^14-address sweep against a null sink, min of 3 runs per variant. Nil = tracing disabled (nil registry: inert span, inert batch tracer); Enabled = live registry with a scan span and bounded sweep_batch exemplar sampling (first 32 + every 1024th batch). Gate: enabled/nil ns/op <= 1.05." \
	        -gate-num BenchmarkSweepTraceEnabled -gate-den BenchmarkSweepTraceNil -gate-max 1.05 \
	        -out BENCH_trace.json

# Sweep fast path: the flat-FIB destination index, routed-space
# short-circuit, and zero-alloc probe evaluation. BENCH_sweepfast.before.txt
# is the raw benchmark output captured on the pre-FIB tree; re-running this
# target re-measures "after" on the current tree and diffs against that
# fixed baseline, so the delta in BENCH_sweepfast.json stays attributable
# to the fast path rather than to machine drift.
bench-sweep:
	( $(GO) test -run xxx -bench BenchmarkStudySerial -benchtime 3x -benchmem . && \
	  $(GO) test -run xxx -bench BenchmarkFabricSend -benchmem ./internal/fabric/ ) | \
	    $(GO) run ./cmd/benchjson \
	        -before BENCH_sweepfast.before.txt \
	        -command "go test -run xxx -bench BenchmarkStudySerial -benchtime 3x -benchmem . && go test -run xxx -bench BenchmarkFabricSend -benchmem ./internal/fabric/" \
	        -note "Before = radix+map destination lookups with per-probe header and query allocations; after = flat per-/24 FIB resolve, pooled policy queries, stack header decode, the scanner's routed-space short-circuit, and pooled bufio readers on the L7 grab path. BenchmarkFabricSend isolates one probe evaluation (host / routed-empty / unrouted destination); BenchmarkStudySerial is the full end-to-end study. Dataset bytes verified identical via the golden test and TestParallelMatchesSerial. Single-core container; treat absolute numbers as machine-specific and compare ratios." \
	        -out BENCH_sweepfast.json

# Batched sweep kernel + full-IPv4-scale world. BENCH_fullspace.before.txt is
# the raw serial-study capture from the pre-batching tree (PR 5); re-running
# diffs the batched kernel against that fixed baseline. BenchmarkFullSpaceSweep
# has no "before" -- the 2^32 sweep did not complete on the old tree, which is
# the point: space24/space32 record what full-scale now costs (one sweep per
# size via -benchtime 1x; space32 walks all 4.29B addresses).
bench-fullspace:
	( $(GO) test -run xxx -bench 'BenchmarkStudySerial$$' -benchtime 3x -benchmem . && \
	  $(GO) test -run xxx -bench BenchmarkFullSpaceSweep -benchtime 1x -benchmem -timeout 60m . ) | \
	    $(GO) run ./cmd/benchjson \
	        -before BENCH_fullspace.before.txt \
	        -command "go test -run xxx -bench 'BenchmarkStudySerial' -benchtime 3x -benchmem . && go test -run xxx -bench BenchmarkFullSpaceSweep -benchtime 1x -benchmem -timeout 60m ." \
	        -note "Before = per-address permutation walk (128-bit modmul per step, per-address ctx/telemetry checks) on the pre-batching tree; after = 4096-address batched kernel (Shoup fixed-multiplier modmul, batched FIB routed evaluation, per-batch ctx/flush) with the sparse FIB directory. BenchmarkFullSpaceSweep runs one end-to-end sweep of a forced 2^24 / 2^32 space over a streaming-build world; fib-MiB is the sparse FIB's measured footprint (budget: <= 2 GiB at space32). Batched output is bit-identical to the serial reference (golden dataset, batched-vs-serial differentials incl. sharded and mid-cancel). Single-core container; compare ratios, not absolutes." \
	        -out BENCH_fullspace.json

# Grab fast path vs the goroutine+vconn reference: ns/grab over identical
# per-window target sequences (every host × rotating protocol, 4096-target
# windows). Reference = per-dial policy evaluation, a vconn pipe and a
# dedicated server goroutine per accepted connection; Fast = one
# PredialBatch per window plus pooled inline-served connections, zero
# goroutines. benchjson's ratio gate (min of 3 runs per variant) enforces
# the tentpole's >= 2x bar; results land in BENCH_grabfast.json.
bench-grab:
	$(GO) test -run xxx -bench 'BenchmarkGrabReference|BenchmarkGrabFast' -benchtime 20000x -count 3 -benchmem ./internal/fabric/ | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench 'BenchmarkGrabReference|BenchmarkGrabFast' -benchtime 20000x -count 3 -benchmem ./internal/fabric/" \
	        -note "One L7 grab per host over a quiet Scale=2e-5 world, protocols rotating per 4096-target window so the mix covers accepted handshakes and refused dials. Reference = fabric.Dial per target + vconn pipe + server goroutine per accepted connection; Fast = fabric.PredialBatch per window + zgrab.GrabFast over pooled inline-served connections (fabric.ActiveConns()==0 asserted after the run). Sealed datasets are bit-identical across the two paths (differential tests pin every policy verdict, loss class, and retry). Both paths share the allocation-lean L7 exchange (append-style encoders, in-place decoders, pooled per-conversation scratch): on a 2-core Xeon it took the fast path from 5,098 ns, 3,873 B and 29 allocs per grab (min of 3, parent tree) to 1-2 us (min of 3 varies that much on a shared VM), about 15 B and 0 allocs (a served grab keeps 1 allocation for an HTTP banner and 2 for SSH's ID lines, which TestGrabFastAllocs pins), and the reference from 11,681 ns, 5,084 B and 41 allocs to 5-8 us, 1.1-1.2 KB and 10-11 allocs. Gate: fast/reference ns/op <= 0.5, i.e. >= 2x. Min of 3 runs per variant; machine.cores records the capture machine, compare ratios." \
	        -gate-num BenchmarkGrabFast -gate-den BenchmarkGrabReference -gate-max 0.5 \
	        -out BENCH_grabfast.json

# Scale-0.1 and Scale-1.0 studies under the spill-to-disk result store,
# with the result budget fixed at 128 MiB. Each benchmark fails if its
# scan never spills or if the process peak RSS (recorded as peak-rss-MiB)
# exceeds its ceiling — 3 GiB at Scale=0.1 (raised from PR 7's 2 GiB for
# the 128-bit address widening), 16 GiB at Scale=1.0 where the streamed
# world and the per-scan reply log dominate. One run per scale is the
# measurement (-benchtime 1x; the full-scale study takes on the order of
# an hour on the single-core container).
bench-scale1:
	$(GO) test -run xxx -bench 'BenchmarkScale1Study|BenchmarkScale1FullStudy' -benchtime 1x -benchmem -timeout 150m . | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench 'BenchmarkScale1Study|BenchmarkScale1FullStudy' -benchtime 1x -benchmem -timeout 150m ." \
	        -note "Scale1Study: Scale=0.1 study (US1/HTTP/1 trial, ~5.8M-host streaming world) through the full experiment path with the spill store under a fixed 128 MiB result budget; peak-rss-MiB is the process VmHWM high-water mark (must stay under the 3 GiB ceiling — raised from PR 7's 2 GiB for the 128-bit address widening; the in-memory store would peak well above it). Scale1FullStudy: the same study at Scale=1.0 — the ROADMAP's full-IPv4-scale milestone, ~68.6M hosts and ~53M L7 handshakes on the grab fast path, RSS ceiling 16 GiB with a pinned 14 GiB Go soft memory limit so GC headroom over the ~10 GiB live heap (the ~2.2 GiB per-scan reply log, the FIB host arrays, the sealed output) is deterministic rather than GOGC-timing luck. spill-segments/spilled-MiB/merge-* are the spill store's own counters; sealed bytes are identical to the in-memory path (differential tests pin this). Single-core container." \
	        -out BENCH_scale1.json

# Parallel-engine scaling capture for BENCH_parallel.json. Meaningful only on
# a multi-core runner (the CI bench job uses one); machine.cores in the JSON
# records what the capture ran on, so a 1-core capture is self-describing
# rather than silently flat.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkStudySerial$$|BenchmarkStudyParallel' -benchtime 3x -benchmem . | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench 'BenchmarkStudySerial|BenchmarkStudyParallel' -benchtime 3x -benchmem ." \
	        -note "Serial vs parallel scan engine (2/4/8 workers, plus 8 workers with 4-way sharded sweeps) on the batched kernel. Check machine.cores before reading the ratios: on a single-core runner the parallel variants measure scheduler overhead, not speedup." \
	        -out BENCH_parallel.json

# IPv6 hitlist study capture, plus the v4 serial study re-measured on the
# dual-stack address core: BenchmarkStudySerial here vs the capture in
# BENCH_fullspace.json is the no-regression check for the 128-bit widening
# (budget: within ~5%). Results land in BENCH_v6.json.
bench-v6:
	$(GO) test -run xxx -bench 'BenchmarkV6HitlistStudy|BenchmarkStudySerial$$' -benchtime 3x -benchmem . | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench 'BenchmarkV6HitlistStudy|BenchmarkStudySerial' -benchtime 3x -benchmem ." \
	        -note "V6HitlistStudy = end-to-end IPv6 study (seeded /32-provider world, ~2.9k-target hitlist walk, 2 trials HTTP+SSH, 4 origins) serial and on 4 workers with 4-way sharded walks. StudySerial is the unchanged v4 reference on the widened 128-bit address core; compare against BENCH_fullspace.json's after capture (budget: within ~5%, proving the dual-stack genericization costs the v4 hot path nothing). Single-core container; compare ratios, not absolutes." \
	        -out BENCH_v6.json
