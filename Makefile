# Convenience targets — everything here also runs through plain go commands.

.PHONY: test race chaos chaos-smoke bench bench6 bench7 bench8

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/transport ./internal/reasoner

# chaos runs the deterministic fault-injection differential (8 schedules x
# 3 program classes x pipeline depths) plus the serve-layer tenant variant,
# all under the race detector.
chaos:
	go test -race ./internal/reasoner -run Chaos -count=1 -v && go test -race ./internal/serve -run Chaos -count=1 -v

# chaos-smoke spins randomized fault schedules for CHAOS_SMOKE_TIME (the
# seed is logged; replay a failure with CHAOS_SEED=<n>).
CHAOS_SMOKE_TIME ?= 30s
chaos-smoke:
	CHAOS_SMOKE_TIME=$(CHAOS_SMOKE_TIME) go test ./internal/reasoner -run ChaosRandomizedSchedule -count=1 -v

# bench runs the end-to-end benchmark (BENCHMARK.json, perfbench/) on one
# workload — fig9_tumbling, fig7_sliding_dpr or serve_mixed_tenants — and
# prints one JSON result line; TRACE=1 adds the per-layer breakdown. It
# builds from this checkout into .bench_build/.
WORKLOAD ?= fig9_tumbling
SEED ?= 1
SECONDS ?= 10
TRACE ?= 0
bench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

# bench6 snapshots the wire-path perf trajectory (critical-path ms, request/
# response bytes per window, rounds, pipeline depth) for Fig7 and Fig7Residual
# across R, PR_Dep, serial DPR, and pipelined DPR into BENCH_6.json.
BENCH6_OUT ?= $(CURDIR)/BENCH_6.json
bench6:
	BENCH6_OUT=$(BENCH6_OUT) go test ./internal/bench -run TestWireBenchArtifact -count=1 -v

# bench7 snapshots the static-vs-adaptive partitioning curve under the
# skewed+bursty workload (modeled critical-path ms, rebalancer decision
# counters, elastic join/leave) across fleet sizes into BENCH_7.json.
BENCH7_OUT ?= $(CURDIR)/BENCH_7.json
bench7:
	BENCH7_OUT=$(BENCH7_OUT) go test ./internal/bench -run TestSkewBenchArtifact -count=1 -v

# bench8 snapshots the solver-engine trajectory (per-window solve ms plus the
# conflict-driven counters) for Fig7 and Fig7Residual across the naive,
# worklist, and CDNL engines into BENCH_8.json.
BENCH8_OUT ?= $(CURDIR)/BENCH_8.json
bench8:
	BENCH8_OUT=$(BENCH8_OUT) go test ./internal/bench -run TestCDNLBenchArtifact -count=1 -v
