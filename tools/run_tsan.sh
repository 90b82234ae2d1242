#!/usr/bin/env bash
# Builds the ThreadSanitizer preset and runs the concurrency-sensitive test
# suites (ctest labels "sanitize", "prof", "resil", "virt", "dispatch",
# "aiwc" and "serve": the
# thread-pool cancellation tests, the launch-path sanitizer/fault tests, the
# gpc::prof recorder tests — lock-free per-thread buffers, the synthetic
# device-clock CAS — the gpc::resil fault-injection tests, whose per-site
# atomic call/injection counters and armed() gate run on every worker
# thread, and the gpc::virt tests, whose fair-share scheduler hands the
# driver role between concurrently submitting tenant threads — plus the
# production-vs-oracle differential tests, which flip the process-wide
# engine test hook (sim::set_convergent_fast_path) between launches on the
# block pool — and the gpc::aiwc
# tests, whose per-block collectors merge into the launch Collector under a
# mutex while the recorder's latency histogram takes relaxed atomic hits —
# and the gpc::serve tests, whose sharded queues, worker pool, completion
# latch, breaker state machine and compiled-kernel cache all run cross-
# thread by construction).
#
#   $ tools/run_tsan.sh            # full sanitize-labelled suite under tsan
#   $ tools/run_tsan.sh -R Cancel  # extra ctest args are passed through
#
# A tsan report makes ctest fail (halt_on_error): the suite passing means no
# data race was observed on these paths.
set -euo pipefail
cd "$(dirname "$0")/.."

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
# Perf-floor smoke tests (sim_throughput_floor, serve_latency_floor) are
# excluded: their committed floors are 80% of an *uninstrumented* baseline,
# which tsan's ~10x slowdown cannot meet — a miss there says nothing about
# data races.
ctest --preset tsan -L 'sanitize|prof|resil|virt|dispatch|aiwc|serve' \
  -E '_floor$' "$@"
