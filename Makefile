GO ?= go

.PHONY: all build test verify vet-intent chaos ab ladder-compare bench bench-scale bench-scale-check bench-rma bench-rma-check bench-runtime bench-runtime-check bench-transport bench-transport-check bench-all clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the repo's standing quality gate: static analysis, the internal
# test suite under the race detector (including the 8-sender endpoint stress
# test), the shared-memory transport stress and cross-transport equivalence
# suites re-run at GOMAXPROCS=4 (the default pass inherits the host's
# GOMAXPROCS, which on a single-P box would never exercise true rank
# parallelism — the lock-free mailbox's memory-order claims are only
# meaningfully checked by -race when ranks genuinely preempt each other;
# the bound-directive replay property rides along — core's over clause
# lists, pragma's over text, where ranks really share one parsed block
# concurrently — with every WL-LSMS phase on all three targets, whose
# one-sided windows are created by every rank at once, and the request-reuse
# equivalence, where a reused receive is completed in place by another rank's
# goroutine; so does the back-to-back mixed-collective stress, whose point is ranks lapping each
# other through the one-wave rendezvous, and the recorder's concurrent-emission
# test, where every rank goroutine appends to its own ring of one recorder, the
# barrier's gate tests, whose waiters park at once at more than one P, the
# Port conformance suite and the transport gate's park test, whose waits park
# at once there too, the payload pool's working-set test, the wire-buffer
# exchange, the match table's oracle with its wildcard count, the wall-clock
# unexpected flag, the traced shm run that must still read its stamps, and
# the one-ring tests: the traced halo's golden export, the analyses of a
# traced run, which share the recorder's rings with its spans, the lazily
# grown ring, the traced post-mortem's span tail and a compiled block's
# frozen vars, and the run loops' tests: a block of ranks per loop, a
# panic or a Goexit kept to its rank, bounded waits firing while their whole
# loop waits,
# wakes crossing to a parked loop, and barrier waiters on loops),
# the simnet suite again at GOMAXPROCS=2 (two run loops: the barrier's
# waiters yield on two Ps and wake across them, which neither the host's
# default pass nor four Ps pins), the three
# allocation-counting transport tests (headers, wire buffers, gate parks)
# at GOMAXPROCS=2 without the detector, the
# benchmark's smoke test under the race detector (the configuration in which
# the barrier's lost wakeup was seen: every fence of the halo workload parks
# there),
# the typemap, mpi, shmem and pragma suites again under the `purego` tag so
# the reflection pack/unpack path and the element-typed window copies — the
# fast paths' correctness oracles — stay exercised (and, in pragma, stay
# allocation-free) even though normal builds take the zero-copy path, and the
# telemetry gates re-run without -race (the disabled-telemetry overhead
# bound is a timing assertion the race detector would skew; the metric-name
# collision check rides along, and so do the zero-allocation guards of a
# replayed setEvec region, a replayed two-sided halo region, the halo text
# run as a block and as a compiled plan, a region of prebuilt clause lists
# and the collectives: allocation counts under -race are not the product's,
# and those tests skip themselves there). The final line is the golden-compatibility
# gate: with COMMINTENT_MANAGED_RUNTIME and COMMINTENT_TRANSPORT explicitly
# cleared, every virtual-time golden (chaos hashes, pinned schedules, the
# figure pins) must still be bit-identical — the adaptive layer off is
# contractually a no-op, and the default transport is contractually simnet.
#
# internal/typemap is vetted with -unsafeptr=false: its noescape laundering
# (quarantined in noescape.go) is exactly the pattern that heuristic flags.
# Plain `go vet ./...` will report that package — documented in README
# "Install & test"; this target is the canonical vet invocation.
#
# vet-intent runs first: the static intent verifier (cmd/commvet) must find
# every shipped pattern clean and must still catch every seeded-bad fixture.
#
# The three lines after it keep the transport seam the shape it was given:
# internal/transport (the Port interface, the handles and the one match
# table) imports neither of its implementations, the shm transport does not
# import simnet, and the matcher's core routines are each defined once. The
# line after those does the same for mpi's non-blocking start path: Isend,
# Irecv and their *Into forms allocate a request in one place. The next two
# keep one scheduler: runtime.GOMAXPROCS is read under internal/ only in
# spmd/spmd.go, once per World.Run, for the number of run loops, and
# runtime.Gosched is called nowhere under internal/: a rank's wait yields to
# its run loop instead of spinning. The next keeps one event spine: product code registers fabric observers only in
# the recorder and in telemetry; every other consumer reads recorded events.
# The last two keep two measured decisions: message headers and receive
# handles are recycled per port, not through sync.Pool, whose per-P caches
# missed whenever a header was freed on another P; and core closes one-sided
# windows only through mpi.Fence over the region's windows, one barrier wave
# per region, never window by window. The two after those keep the two-P
# eager path free of clock reads and locks: mpi's p2p, request, collective
# and batch code reads the rank clock only through Comm.stamp, which skips
# a wall reading nothing will read; and the payload pool takes no
# sync.Mutex, because each port recycles its own wire buffers.
verify: vet-intent
	! $(GO) list -deps ./internal/transport | grep -E 'internal/(simnet|shmtransport)$$'
	! $(GO) list -deps ./internal/shmtransport | grep -E 'internal/simnet$$'
	for f in takePosted findUnexpected matches; do test "$$(grep -rEh "^func (\([^)]*\) )?$$f\(" --include='*.go' internal | wc -l)" -eq 1 || { echo "$$f must be defined exactly once under internal/"; exit 1; }; done
	test "$$(grep -rF 'new(Request)' --include='*.go' --exclude='*_test.go' internal/mpi | wc -l)" -eq 1 || { echo "new(Request) must occur exactly once under internal/mpi: Isend and Irecv start operations through one path"; exit 1; }
	test "$$(grep -rlF 'runtime.GOMAXPROCS' --include='*.go' --exclude='*_test.go' internal)" = internal/spmd/spmd.go || { echo "runtime.GOMAXPROCS may be read under internal/ only in internal/spmd/spmd.go"; exit 1; }
	! grep -rnE '^[^/]*runtime\.Gosched\(' --include='*.go' --exclude='*_test.go' internal || { echo "runtime.Gosched may not be called under internal/: a rank's wait yields to its run loop"; exit 1; }
	test "$$(grep -rlE '\.Observe\(func|(Fabric\(\)|fabric|\<f)\.Observe\(' --include='*.go' --exclude='*_test.go' internal cmd | sort | tr '\n' ' ')" = "internal/simnet/recorder.go internal/telemetry/telemetry.go " || { echo "fabric observers may be registered only in internal/simnet/recorder.go and internal/telemetry/telemetry.go"; exit 1; }
	! grep -rnE '^[^/]*\<sync\.Pool\>' --include='*.go' --exclude='*_test.go' internal/transport || { echo "sync.Pool may not be used under internal/transport: headers and handles are recycled per port"; exit 1; }
	! grep -rnF '.Fence()' --include='*.go' --exclude='*_test.go' internal/core || { echo "internal/core closes windows only through mpi.Fence, one wave per region"; exit 1; }
	! grep -nF '.Now()' internal/mpi/p2p.go internal/mpi/request.go internal/mpi/collectives.go internal/mpi/batch.go || { echo "internal/mpi reads the clock for a timestamp only through Comm.stamp"; exit 1; }
	! grep -nE '\<sync\.Mutex\>' internal/transport/pool.go || { echo "internal/transport/pool.go takes no sync.Mutex: wire buffers are recycled per port"; exit 1; }
	$(GO) vet -unsafeptr=false ./internal/typemap/
	$(GO) vet $$($(GO) list ./... | grep -v internal/typemap)
	$(GO) test -race ./internal/... ./cmd/... .
	GOMAXPROCS=4 $(GO) test -race -run 'TestTransportShmStress|TestTransportEquiv|TestRequestReuseEquiv|TestManySendersOneReceiver|TestBoundReplayMatchesFreshLowering|TestEveryPhaseEveryTarget|TestCollectiveStress|TestCollectorConcurrentAdd|TestBarrierParkAllocFree|TestBarrierWaitRule|TestBarrierParkedWaitersSurviveNextGeneration|TestBarrierStepBeforeParkedWaitersWake|TestPoolHoldsInFlightWorkingSet|TestOneSidedRegionOneWave|TestFenceOneWavePerComm|TestRecycledHeadersAllocFree|TestPortConformance|TestGateParkAllocFree|TestWireBuffersAllocFree|TestTableMatchesOracle|TestUnexpectedOnWallClock|TestTracedShmStampsWall|TestTracedHaloGolden|TestAnalysesDoNotSeeSpans|TestSpanRingMemoryFollowsUse|TestPostmortemTracedTailHoldsSpans|TestCompileBlockFreezesVars|TestRunLoopsOwnBlocks|TestRunLoopPanicStaysPerRank|TestRunLoopGoexitStaysPerRank|TestRunLoopBoundedWaitsFire|TestRunLoopWakesParkedLoop|TestBarrierLoopWaitersYield|TestBarrierParksCountBlockedWaiters|TestRunLoopDeadlineSurvivesSpuriousWakes' ./internal/mpi/ ./internal/shmtransport/ ./internal/pragma/ ./internal/core/ ./internal/wllsms/ ./internal/trace/ ./internal/simnet/ ./internal/transport/ ./internal/telemetry/ ./internal/spmd/ .
	GOMAXPROCS=2 $(GO) test -race ./internal/simnet/
	GOMAXPROCS=2 $(GO) test -count=1 -run 'TestRecycledHeadersAllocFree|TestWireBuffersAllocFree|TestGateParkAllocFree' ./internal/transport/
	$(GO) test -race ./benchmark/
	$(GO) test -tags purego ./internal/typemap/ ./internal/mpi/ ./internal/shmem/ ./internal/pragma/
	$(GO) test -run 'TestDisabledTelemetryOverhead|TestMetricNamesCollisionFree|TestSetEvecReplayAllocs|TestHalo2sReplayAllocs|TestHaloTextSteadyStateAllocs|TestRegionSteadyStateAllocs|TestCollectiveSteadyStateAllocs' ./internal/telemetry/ ./internal/wllsms/ ./internal/core/ ./internal/pragma/ ./internal/mpi/
	COMMINTENT_MANAGED_RUNTIME= COMMINTENT_TRANSPORT= $(GO) test -run 'TestChaosHaloSweep|TestVirtualTimePinned|TestFiguresPinned' . ./internal/mpi/ ./internal/bench/

# vet-intent is the static intent-verification gate: commvet analyses every
# shipped pattern's communication graph over its size sweep (must be clean,
# exit 0) and then the seeded-bad fixtures (each must be caught — commvet
# exits 1 on findings, and 2 if a fixture's expected finding kind is missed,
# which `!` would not distinguish, hence the explicit exit-code check).
vet-intent:
	$(GO) run ./cmd/commvet
	$(GO) run ./cmd/commvet -fixtures > /dev/null; test $$? -eq 1
	@echo intent verification clean

# chaos is the hang-proofing gate: the fault-injection sweep (64 and 256
# ranks at 0%/1%/5% drop) under the race detector, asserting that every
# iteration either completes with correct halos or returns a typed error,
# and that same-seed runs reproduce bit-identical virtual times (pinned in
# testdata/chaos_golden.json; regenerate with -update-chaos after a
# deliberate cost- or fault-model change). ./internal/plan/ rides along for
# TestFaultScheduleCounterexamples: every commvet finding's seeded schedule
# must reproduce its defect (deadlock fixtures hang and are cancelled by the
# watchdog into typed deadline errors).
chaos:
	$(GO) test -race -run 'TestChaos|TestFault|TestRetry|TestDeadline|TestWaitUntilTimeout' . ./internal/simnet/ ./internal/mpi/ ./internal/core/ ./internal/shmem/ ./internal/plan/

# ab compares the benchmark at a git revision with the working tree:
# interleaved, order-swapped pairs of `benchmark/run.sh --trace 0` per
# workload, every run kept in one stamped JSON under .ab/, and per metric
# both sides' median [q1-q3], the change, the bound, the pairs the working
# tree was lower in, and a verdict (better, worse, equal, unresolved; see
# cmd/ab). REF is exported into .ab/ with git archive; nothing is fetched.
#   make ab REF=HEAD~1 WORKLOADS=allreduce_r256_shm_p2 PAIRS=10
PAIRS ?= 10
ab:
	$(GO) run ./cmd/ab -ref '$(REF)' -workloads '$(WORKLOADS)' -pairs $(PAIRS)

# ladder-compare gates one layer-ladder report against another: B may be no
# worse than A beyond the bounds BENCHMARK.json fixes, on any workload.
# Write the reports with `go run ./benchmark -json <file>` (about three
# minutes each, same host, same seed):
#   make ladder-compare A=parent.json B=change.json
ladder-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# bench runs the data-plane benchmarks (simulator wall-clock cost: pack and
# unpack, payload pooling, message matching) and snapshots them, diffed
# against the committed pre-zero-copy baseline, into BENCH_dataplane.json.
bench:
	$(GO) test -run XXX -bench BenchmarkDataPlane -benchmem -count=5 . | tee bench_dataplane.out
	$(GO) run ./cmd/benchjson -baseline testdata/bench_baseline_dataplane.txt < bench_dataplane.out > BENCH_dataplane.json
	@rm -f bench_dataplane.out
	@echo wrote BENCH_dataplane.json

# bench-scale runs the scale suite (whole-world barrier / allreduce / halo
# cost at 64/256/1024 ranks, plus the 4096/16384/65536 big-scale sweep of
# barrier and allreduce) and snapshots it,
# diffed against the committed pre-redesign baseline, into BENCH_scale.json.
# -timeout 0 matters: the test binary's watchdog timer otherwise adds
# measurable scheduler overhead to every goroutine switch on a single-P box.
# The big-scale sizes run in a second pass with a fixed iteration count:
# letting the framework ramp toward 1s/benchmark at 64k goroutine ranks
# spends minutes re-spawning worlds for no extra signal.
bench-scale:
	$(GO) test -run XXX -bench BenchmarkScale -skip Big -benchmem -count=5 -timeout 0 . | tee bench_scale.out
	$(GO) test -run XXX -bench 'BenchmarkScale.*Big' -benchmem -count=3 -benchtime 10x -timeout 0 . | tee -a bench_scale.out
	$(GO) run ./cmd/benchjson -baseline testdata/bench_baseline_scale.txt < bench_scale.out > BENCH_scale.json
	@rm -f bench_scale.out
	@echo wrote BENCH_scale.json

# bench-scale-check is the wall-clock regression gate: re-run the scale
# suite and fail if any benchmark's best sample sits >25% above the
# committed BENCH_scale.json median (min-vs-median rides out scheduler
# noise; a real regression shifts even the cleanest sample).
bench-scale-check:
	( $(GO) test -run XXX -bench BenchmarkScale -skip Big -benchmem -count=5 -timeout 0 . ; \
	  $(GO) test -run XXX -bench 'BenchmarkScale.*Big' -benchmem -count=3 -benchtime 10x -timeout 0 . ) \
	  | $(GO) run ./cmd/benchjson -compare BENCH_scale.json > /dev/null
	@echo scale benchmarks within budget

# bench-rma runs the one-sided suite (window put/get, halo-via-put through
# the directive layer, symmetric-heap put at 64/256/1024 ranks) and
# snapshots it, diffed against the committed pre-fast-path baseline, into
# BENCH_rma.json. Same -timeout 0 rationale as bench-scale.
bench-rma:
	$(GO) test -run XXX -bench BenchmarkRMA -benchmem -count=5 -timeout 0 . | tee bench_rma.out
	$(GO) run ./cmd/benchjson -baseline testdata/bench_baseline_rma.txt < bench_rma.out > BENCH_rma.json
	@rm -f bench_rma.out
	@echo wrote BENCH_rma.json

# bench-rma-check is the one-sided regression gate, the RMA analogue of
# bench-scale-check: fail if any benchmark's best sample sits >25% above
# the committed BENCH_rma.json median.
bench-rma-check:
	$(GO) test -run XXX -bench BenchmarkRMA -benchmem -count=5 -timeout 0 . | $(GO) run ./cmd/benchjson -compare BENCH_rma.json > /dev/null
	@echo rma benchmarks within budget

# bench-runtime runs the managed-runtime benchmark (the Figure 4 directive
# spin transfer at coalescing-relevant size) with the runtime switched on
# via its environment knob and snapshots it, diffed against the committed
# runtime-off baseline, into BENCH_runtime.json: the vs_baseline section
# then documents exactly what flipping COMMINTENT_MANAGED_RUNTIME buys with
# zero directive edits. Same -timeout 0 rationale as bench-scale. To refresh
# the baseline after a deliberate model change:
#   go test -run XXX -bench BenchmarkRuntime -benchmem -count=5 -timeout 0 . > testdata/bench_baseline_runtime.txt
bench-runtime:
	COMMINTENT_MANAGED_RUNTIME=1 $(GO) test -run XXX -bench BenchmarkRuntime -benchmem -count=5 -timeout 0 . | tee bench_runtime.out
	$(GO) run ./cmd/benchjson -baseline testdata/bench_baseline_runtime.txt < bench_runtime.out > BENCH_runtime.json
	@rm -f bench_runtime.out
	@echo wrote BENCH_runtime.json

# bench-runtime-check is the managed-runtime wall-clock regression gate, the
# analogue of bench-scale-check: re-run with the runtime on and fail if the
# benchmark's best sample sits >25% above the committed BENCH_runtime.json
# median.
bench-runtime-check:
	COMMINTENT_MANAGED_RUNTIME=1 $(GO) test -run XXX -bench BenchmarkRuntime -benchmem -count=5 -timeout 0 . | $(GO) run ./cmd/benchjson -compare BENCH_runtime.json > /dev/null
	@echo runtime benchmarks within budget

# bench-transport runs the cross-transport suite (4 KiB ping-pong, the
# 256-rank allreduce, and the full Figure 4 directive workload — each on
# simnet and on the parallel shm transport at GOMAXPROCS 1/4/8) and
# snapshots it into BENCH_transport.json. There is no -baseline file: the
# comparison of interest is inside the report itself, simnet/* versus shm/*
# rows for the same workload. Iteration counts are pinned per workload
# rather than letting the framework ramp toward 1s: the p4/p8 rows run
# more Ps than this box has CPUs, and an open-ended ramp there can crawl
# for minutes inside one spin-then-park scheduling pathology for no extra
# signal (same reasoning as bench-scale's Big pass). Same -timeout 0
# rationale as bench-scale. Caveat when reading the numbers: on a
# single-core box every p4/p8 row measures Go scheduler overhead on one
# CPU, not rank parallelism — see DESIGN.md §16 before drawing speedup
# conclusions.
bench-transport:
	$(GO) test -run XXX -bench BenchmarkTransportPingpong4K -benchmem -count=5 -benchtime 100000x -timeout 0 . | tee bench_transport.out
	$(GO) test -run XXX -bench BenchmarkTransportAllreduce256 -benchmem -count=5 -benchtime 200x -timeout 0 . | tee -a bench_transport.out
	$(GO) test -run XXX -bench BenchmarkTransportFig4 -benchmem -count=3 -benchtime 30x -timeout 0 . | tee -a bench_transport.out
	$(GO) run ./cmd/benchjson < bench_transport.out > BENCH_transport.json
	@rm -f bench_transport.out
	@echo wrote BENCH_transport.json

# bench-transport-check is the cross-transport wall-clock regression gate,
# the analogue of bench-scale-check: re-run the suite and fail if any
# benchmark's best sample sits >25% above the committed
# BENCH_transport.json median.
bench-transport-check:
	( $(GO) test -run XXX -bench BenchmarkTransportPingpong4K -benchmem -count=5 -benchtime 100000x -timeout 0 . ; \
	  $(GO) test -run XXX -bench BenchmarkTransportAllreduce256 -benchmem -count=5 -benchtime 200x -timeout 0 . ; \
	  $(GO) test -run XXX -bench BenchmarkTransportFig4 -benchmem -count=3 -benchtime 30x -timeout 0 . ) \
	  | $(GO) run ./cmd/benchjson -compare BENCH_transport.json > /dev/null
	@echo transport benchmarks within budget

# bench-all additionally runs every other benchmark once (the virtual-time
# figure benchmarks live in internal packages).
bench-all: bench
	$(GO) test -bench . -benchtime=1x -run XXX ./internal/...

clean:
	$(GO) clean ./...
	rm -f bench_dataplane.out bench_scale.out bench_rma.out bench_runtime.out bench_transport.out
