# dsmsim — build, test and reproduction targets.

GO ?= go

.PHONY: all test test-short bench bench-json bench-sweep examples paper verify-paper trace-demo sweep-demo metrics-demo faults-demo prof-demo crit-demo scale-demo fork-demo tlc-demo clean

all: test

# Full test suite: protocol semantics, application verification across the
# whole protocol × granularity matrix, property tests.
test:
	$(GO) vet ./...
	$(GO) test ./...

# Quick subset (skips the mid-size sweeps and repeat runs).
test-short:
	$(GO) test -short ./...

# One iteration of every table/figure benchmark plus the ablations, at the
# reduced problem sizes.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Hot-path benchmark record: run the tracked microbenchmarks (single-run
# matrix, Fig 1 workload, sweep, lock handoff, barrier episodes, 1024-node
# barrier releases, raw engine dispatch) with -benchmem and emit
# BENCH_hotpath.json — current numbers joined with the checked-in
# pre-optimization baseline (bench_baseline.json) and improvement ratios.
# BENCHTIME trades precision for speed (CI smoke-tests with 1x).
BENCHTIME ?= 1x
bench-json:
	{ $(GO) test -run '^$$' -bench 'SingleRun|Fig1$$|BenchmarkSweep/|LockHandoff|BarrierEpisode|BarrierRelease' -benchmem \
		-benchtime=$(BENCHTIME) . ; \
	  $(GO) test -run '^$$' -bench 'EngineDispatch|ProcSleep' -benchmem \
		-benchtime=100000x ./internal/sim ; } | tee bench_raw.txt
	$(GO) run ./cmd/benchjson -in bench_raw.txt \
		-baseline bench_baseline.json -out BENCH_hotpath.json

# Checkpoint/fork sweep benchmark record: the same 12-variant fault-grid
# sweep flat and forked (byte-identical output; only wall clock differs),
# emitted as BENCH_sweep.json. The checked-in bench_sweep_baseline.json
# records the flat path's numbers, so vs_baseline.ns_speedup for
# BenchmarkSweep/forked IS the fork speedup (target: >= 2x).
SWEEPTIME ?= 3x
bench-sweep:
	$(GO) test -run '^$$' -bench 'BenchmarkSweep/' -benchmem \
		-benchtime=$(SWEEPTIME) . | tee bench_sweep_raw.txt
	$(GO) run ./cmd/benchjson -in bench_sweep_raw.txt \
		-baseline bench_sweep_baseline.json -out BENCH_sweep.json \
		-note "Checkpoint/fork sweep planner (make bench-sweep): the same 12-variant fault-grid sweep flat vs forked, byte-identical output. The baseline records the flat path, so vs_baseline ns_speedup for BenchmarkSweep/forked is the fork wall-clock speedup (target >= 2x); BenchmarkSweep/flat is a ~1.0 sanity check."

# Run all three examples.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/protocols lu

# Regenerate every paper table and figure at the paper's problem sizes
# (tens of minutes; writes results_paper.txt and results.csv).
paper:
	$(GO) run ./cmd/dsmbench -exp all -size paper -nodes 16 \
		-csv results.csv > results_paper.txt

# Paper-scale sweep with per-run result verification (slower).
verify-paper:
	$(GO) run ./cmd/dsmbench -exp all -size paper -nodes 16 -verify \
		-csv results.csv > results_paper.txt

# Demonstrate the parallel sweep engine: run a small experiment serially
# and with one worker per CPU under the race detector, and require the
# table + CSV output to be byte-identical.
sweep-demo:
	$(GO) run -race ./cmd/dsmbench -exp table3 -size small -nodes 4 \
		-parallel 1 -csv sweep_p1.csv > sweep_p1.txt 2>/dev/null
	$(GO) run -race ./cmd/dsmbench -exp table3 -size small -nodes 4 \
		-parallel 0 -csv sweep_pN.csv > sweep_pN.txt 2>/dev/null
	cmp sweep_p1.txt sweep_pN.txt
	cmp sweep_p1.csv sweep_pN.csv
	@echo "parallel sweep output is byte-identical to serial"

# Produce a sample execution trace from the quickstart example; open
# trace.json at https://ui.perfetto.dev (or chrome://tracing).
trace-demo:
	$(GO) run ./examples/quickstart -trace-json trace.json
	@echo "wrote trace.json — open it at https://ui.perfetto.dev"

# Demonstrate the virtual-time metrics sampler on one Ocean-Rowwise run:
# the phase-resolved Figure-2 breakdown on stdout, the sampler time-series
# as CSV, and Chrome-trace counter tracks for https://ui.perfetto.dev.
metrics-demo:
	$(GO) run ./cmd/dsmrun -app ocean-rowwise -protocol hlrc -block 4096 \
		-nodes 4 -sample-every 100us \
		-sample-csv metrics_demo.csv -sample-json metrics_demo.json
	@echo "wrote metrics_demo.csv and metrics_demo.json — open the JSON at https://ui.perfetto.dev"

# Demonstrate deterministic fault injection: one verified LU run at 1%
# message loss (the reliability counters print after the messages line),
# then the degradation table — completion time vs loss rate per protocol.
faults-demo:
	$(GO) run ./cmd/dsmrun -app lu -protocol sc -block 4096 -nodes 4 \
		-faults 'drop=0.01,seed=1'
	$(GO) run ./cmd/dsmbench -exp degradation -nodes 4 -size small \
		-progress=false

# Demonstrate the sharing-pattern profiler: one Volrend-Original run with
# the per-region report (the image plane shows the paper's false sharing),
# then the restructuring comparison — false-sharing fraction vs coherence
# granularity for the original and row-wise task shapes.
prof-demo:
	$(GO) run ./cmd/dsmrun -app volrend-original -protocol hlrc -block 4096 \
		-nodes 16 -prof
	$(GO) run ./cmd/dsmbench -exp sharing -nodes 16 -size small \
		-progress=false

# Demonstrate the critical-path profiler: one LU run with the recovered
# path's component/node/region report, the same run under a what-if
# (halved wire latency) printing the path-predicted speedup next to the
# re-simulated ground truth, then the path-composition table across the
# protocol × granularity matrix.
crit-demo:
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 8 \
		-crit -crit-top 3
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 8 \
		-whatif msg=0.5
	$(GO) run ./cmd/dsmbench -exp critpath -nodes 16 -size small \
		-progress=false

# Demonstrate the lifted node ceiling: verified FFT + LU sweep at 256
# nodes under every protocol, then a single verified 1024-node LU run.
# Sparse directory tables and compact copysets keep protocol metadata
# proportional to touched blocks (plus a per-node term), so node counts
# far past the old 64-node bound stay cheap.
scale-demo:
	$(GO) run ./cmd/dsmrun -app fft,lu -protocol all -block 4096 -nodes 256
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 1024
	@echo "verified runs at 256 and 1024 nodes completed"

# Demonstrate the timestamp-lease protocol: one verified lock-heavy run
# under tlc (leases self-expire against the logical clock; no
# invalidation fan-out), a verified four-family sweep at both granularity
# extremes, then the registry-driven comparison table with tlc's lease
# traffic in the last column.
tlc-demo:
	$(GO) run ./cmd/dsmrun -app water-nsquared -protocol tlc -block 1024 -nodes 8
	$(GO) run ./cmd/dsmrun -app fft,lu -protocol all -block 64,4096 -nodes 4
	$(GO) run ./cmd/dsmbench -exp fourway -nodes 4 -size small -progress=false

# Demonstrate checkpoint/fork warmup sharing: the same fault-grid sweep
# (three variants per configuration, plans gated on barrier 6) run flat
# and forked. The forked run simulates each group's warmup prefix once,
# forks it per variant, prints its speedup summary line — and its CSV must
# be byte-identical to the flat run's.
fork-demo:
	rm -f fork_flat.csv fork_forked.csv
	$(GO) run ./cmd/dsmrun -app ocean-rowwise,fft -protocol sc,hlrc \
		-block 1024,4096 -nodes 4 -size small \
		-fault-grid 'none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11' \
		-fork-warmup 6 -csv fork_flat.csv > /dev/null
	$(GO) run ./cmd/dsmrun -app ocean-rowwise,fft -protocol sc,hlrc \
		-block 1024,4096 -nodes 4 -size small \
		-fault-grid 'none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11' \
		-fork-warmup 6 -fork -csv fork_forked.csv | tail -1
	cmp fork_flat.csv fork_forked.csv
	@echo "forked sweep CSV is byte-identical to flat"

# Per-feature smoke checks, one target per CI matrix entry; `make smoke`
# runs them all. Multi-command lines run under `set -e` like a CI step.
SMOKE := smoke-parallel-sweep smoke-metrics smoke-faults smoke-prof \
	smoke-critpath smoke-scale smoke-fork smoke-tlc smoke-bench

.PHONY: smoke $(SMOKE)
smoke: $(SMOKE)

# Race detector on the sweep engine; parallel sweep byte-identical to serial.
smoke-parallel-sweep:
	$(GO) test -race ./internal/sweep ./internal/harness .
	$(MAKE) sweep-demo

# Sampler CSV byte-identical across parallelism; the live exporter serves
# valid Prometheus text (every non-comment line is "name value").
smoke-metrics:
	rm -f samples_p1.csv samples_p8.csv metrics.txt
	$(GO) run ./cmd/dsmbench -exp table3 -size small -nodes 4 -parallel 1 \
		-sample-every 200us -sample-csv samples_p1.csv >/dev/null 2>&1
	$(GO) run ./cmd/dsmbench -exp table3 -size small -nodes 4 -parallel 8 \
		-sample-every 200us -sample-csv samples_p8.csv >/dev/null 2>&1
	cmp samples_p1.csv samples_p8.csv
	@echo "sampler CSV is byte-identical at -parallel 1 and 8"
	set -e; \
	$(GO) run ./cmd/dsmbench -exp fig1 -size small -nodes 4 \
		-metrics-addr 127.0.0.1:9101 -metrics-linger 60s \
		>/dev/null 2>bench.log & \
	BENCH_PID=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:9101/metrics -o metrics.txt && break; \
		sleep 0.2; \
	done; \
	kill $$BENCH_PID 2>/dev/null || true; \
	grep -q '^dsmsim_sweep_points_total [0-9]' metrics.txt; \
	grep -q '^dsmsim_sweep_points_completed [0-9]' metrics.txt; \
	! grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$$)' metrics.txt \
		| grep -q . || (cat metrics.txt; exit 1); \
	echo "live /metrics endpoint serves valid Prometheus text"

# Fault-injection unit and determinism tests (race); verified run and
# degradation table under 1% loss; same-seed lossy run is byte-identical.
smoke-faults:
	$(GO) test -race ./internal/faults ./internal/network ./internal/sweep .
	$(MAKE) faults-demo
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 4 \
		-faults 'drop=0.02,seed=3' > lossy_a.txt
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 4 \
		-faults 'drop=0.02,seed=3' > lossy_b.txt
	cmp lossy_a.txt lossy_b.txt
	grep -q 'reliability' lossy_a.txt
	@echo "seeded lossy run replays byte-identically"

# Profiler unit and attribution tests (race); report and sharing table
# demo; profiler CSV byte-identical across parallelism.
smoke-prof:
	$(GO) test -race ./internal/shareprof ./internal/sweep .
	$(MAKE) prof-demo
	rm -f prof_p1.csv prof_p8.csv
	$(GO) run ./cmd/dsmbench -exp table9 -size small -nodes 4 -parallel 1 \
		-prof-csv prof_p1.csv >/dev/null 2>&1
	$(GO) run ./cmd/dsmbench -exp table9 -size small -nodes 4 -parallel 8 \
		-prof-csv prof_p8.csv >/dev/null 2>&1
	cmp prof_p1.csv prof_p8.csv
	head -1 prof_p1.csv | grep -q '^app,protocol,block,notify,nodes,region,'
	grep -q ',(total),' prof_p1.csv
	@echo "profiler CSV is byte-identical at -parallel 1 and 8"

# Critical-path unit, exact-invariant and what-if tests (race); the
# recovered path length equals the completion time on a live run; what-if
# prints prediction and re-simulated ground truth; crit CSV byte-identical
# across parallelism; crit demo.
smoke-critpath:
	$(GO) test -race ./internal/critpath
	$(GO) test -race -run 'Crit|WhatIf|ForkTrace' ./internal/core ./internal/sweep
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 8 \
		-crit > crit_run.txt
	set -e; \
	TIME=$$(awk '/parallel time/ {print $$3}' crit_run.txt); \
	CPATH=$$(awk '/critical path:/ {print $$3}' crit_run.txt); \
	test -n "$$TIME" && test "$$TIME" = "$$CPATH"; \
	echo "critical path $$CPATH equals completion time $$TIME"
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 8 \
		-whatif msg=0.5 > whatif.txt
	grep -q 'path-predicted' whatif.txt
	grep -q 're-simulated' whatif.txt
	@echo "what-if reports both predicted and re-simulated speedups"
	rm -f crit_p1.csv crit_p8.csv
	$(GO) run ./cmd/dsmbench -exp table3 -size small -nodes 4 -parallel 1 \
		-crit-csv crit_p1.csv >/dev/null 2>&1
	$(GO) run ./cmd/dsmbench -exp table3 -size small -nodes 4 -parallel 8 \
		-crit-csv crit_p8.csv >/dev/null 2>&1
	cmp crit_p1.csv crit_p8.csv
	head -1 crit_p1.csv | grep -q '^app,protocol,block,notify,nodes,crit_total_ns,'
	@echo "crit CSV is byte-identical at -parallel 1 and 8"
	$(MAKE) crit-demo

# Copyset, sparse-table and home-overlay unit tests (race); 256/1024-node
# verified runs, footprint ceilings, golden CSV; scale demo.
smoke-scale:
	$(GO) test -race -run 'Copyset|Table|Homes' -v ./internal/proto
	$(GO) test -run 'TestSweepCSVGolden|TestVerified1024|TestScaleFootprint256' -v .
	$(MAKE) scale-demo

# Checkpoint/fork equivalence and planner tests (race); forked vs flat
# sweep CSV diff at -parallel 1 and 8; fork demo; hot path stays
# zero-alloc with forking off.
smoke-fork:
	$(GO) test -race -run 'Fork|Checkpoint|Memo' ./internal/core ./internal/sweep .
	rm -f flat.csv flat_samples.csv fork_p1.csv fork_p1_samples.csv fork_p8.csv fork_p8_samples.csv
	set -e; \
	GRID='none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11'; \
	ARGS='-app ocean-rowwise,fft -protocol sc,hlrc -block 1024,4096 -nodes 4 -size small -fork-warmup 6 -sample-every 200us'; \
	$(GO) run ./cmd/dsmrun $$ARGS -fault-grid "$$GRID" -parallel 1 \
		-csv flat.csv -sample-csv flat_samples.csv >/dev/null 2>&1; \
	$(GO) run ./cmd/dsmrun $$ARGS -fault-grid "$$GRID" -fork -parallel 1 \
		-csv fork_p1.csv -sample-csv fork_p1_samples.csv >/dev/null 2>&1; \
	$(GO) run ./cmd/dsmrun $$ARGS -fault-grid "$$GRID" -fork -parallel 8 \
		-csv fork_p8.csv -sample-csv fork_p8_samples.csv >/dev/null 2>&1; \
	cmp flat.csv fork_p1.csv; \
	cmp flat.csv fork_p8.csv; \
	cmp flat_samples.csv fork_p1_samples.csv; \
	cmp flat_samples.csv fork_p8_samples.csv; \
	echo "forked sweep CSV + sample CSV are byte-identical to flat at -parallel 1 and 8"
	$(MAKE) fork-demo
	$(GO) test -run TestAccessNoFaultZeroAlloc -v ./internal/core

# Protocol registry and lease-protocol tests (race); four-protocol sweep
# with verification; tlc demo.
smoke-tlc:
	$(GO) test -race -short ./internal/proto/...
	$(GO) run ./cmd/dsmrun -app fft,water-nsquared -protocol all \
		-block 64,4096 -nodes 4 -size small > tlc_sweep.txt
	set -e; for p in sc dc swlrc hlrc tlc; do grep -q " $$p " tlc_sweep.txt; done
	@echo "all registered protocols ran and verified"
	$(MAKE) tlc-demo

# Benchmark smoke vs tracked baseline; hot path stays zero-alloc with and
# without the profiler.
smoke-bench:
	$(MAKE) bench-json BENCHTIME=1x
	$(GO) test -run TestAccessNoFaultZeroAlloc -v ./internal/core

clean:
	rm -f results.csv trace.json sweep_p1.txt sweep_pN.txt sweep_p1.csv sweep_pN.csv \
		metrics_demo.csv metrics_demo.json prof_p1.csv prof_p8.csv \
		crit_p1.csv crit_p8.csv \
		fork_flat.csv fork_forked.csv bench_sweep_raw.txt \
		samples_p1.csv samples_p8.csv metrics.txt bench.log lossy_a.txt lossy_b.txt \
		crit_run.txt whatif.txt flat.csv flat_samples.csv fork_p1.csv fork_p1_samples.csv \
		fork_p8.csv fork_p8_samples.csv tlc_sweep.txt
