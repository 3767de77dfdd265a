#!/usr/bin/env sh
# Regenerates the "current" section of BENCH_taskrt.json (spawn/join
# round trip, goroutine-id cost, and the counter-overhead-vs-grain table
# from the paper's Section VI), the "parcel_bulk" section (K remote
# counters per sample: one evaluate_bulk round trip versus the K-round-
# trip per-counter loop), the "aggregation_tree" section (per-tick root
# cost of the k-ary counter overlay vs the flat O(n) sweep at n = 10..
# 10k localities), and then enforces the perf budgets against the fresh
# numbers. The "seed" section is the committed pre-optimization
# baseline and is preserved. Run on a quiet machine; every number here
# is a timing.
set -eu

cd "$(dirname "$0")/.."

echo "== microbenchmarks =="
go test -run=XXX -bench='SpawnGet|BatchSpawn|GoroutineID|CurrentWorkerLookup' \
    -benchtime=200ms ./internal/taskrt/
go test -run=XXX -bench='EvaluateBulk|EvaluatePerCounter' \
    -benchtime=50x ./internal/parcel/
go test -run=XXX -bench='HandleEvaluate|EvaluateBatch' \
    -benchtime=200ms ./internal/core/

echo "== regenerating BENCH_taskrt.json =="
# TestWriteBenchJSON includes the workers=1,4 x {1,10}us sweep
# (overhead_by_workers), so the batch publish is also drained by
# thieves, not only by its owning worker.
TASKRT_BENCH_JSON="$(pwd)/BENCH_taskrt.json" \
    go test -count=1 -run TestWriteBenchJSON -timeout 20m -v ./internal/taskrt/
TASKRT_BENCH_JSON="$(pwd)/BENCH_taskrt.json" \
    go test -count=1 -run TestWriteBulkBenchJSON -v ./internal/parcel/
TASKRT_BENCH_JSON="$(pwd)/BENCH_taskrt.json" \
    go test -count=1 -run TestWriteTelemetryBudgetJSON -v ./internal/telemetry/
TASKRT_BENCH_JSON="$(pwd)/BENCH_taskrt.json" \
    go test -count=1 -run TestWriteTreeBenchJSON -timeout 20m -v ./internal/agas/tree/

echo "== perf budget gate =="
# Fails when the 1us-grain counter overhead exceeds 8%, the 1us-grain
# scheduling overhead exceeds 40%, the spawn+get round trip regresses
# >2x, or the batch per-child spawn cost regresses >8% over the
# committed baseline.
TASKRT_BENCH_GATE=1 TASKRT_BENCH_BASELINE="$(pwd)/BENCH_taskrt.json" \
    go test -count=1 -run TestBenchGate -v ./internal/taskrt/

echo "== done =="
git --no-pager diff --stat BENCH_taskrt.json || true
