#!/usr/bin/env bash
# Canonical CI entry point: reproduces the ROADMAP tier-1 verify exactly.
#
#   cmake -B build -S . && cmake --build build -j && \
#     cd build && ctest --output-on-failure -j
#
# On a plain (unsanitized) run three regular steps follow the tier-1 suite:
#
#   * Lint gate — ci/lint.sh runs janus-lint (determinism, hot-path
#     allocation discipline, shared-state hygiene; see tools/janus_lint.py)
#     against the compile_commands.json the tier-1 configure just
#     exported, plus clang-tidy when installed.  LINT=0 skips.
#   * ASan/UBSan pass — the simulation-facing suites (sim/fleet/exp/obs/
#     chaos), the stats suite and janus_cli's CLI scripts (help/
#     fleet_policy/chaos) are rebuilt under -fsanitize=address,undefined
#     in build-asan/ and rerun: a fleet shard's tenant calendars share one
#     closure slot pool, so closure lifetimes cross engines, the empirical
#     distribution's radix sort indexes raw buffers, and the CLI parses
#     untrusted argv.  ASAN=0 skips.
#   * TSan pass — the fleet drives the thread pool with real concurrency,
#     so the concurrency-facing suites (fleet/common/sim/obs/chaos/
#     frontier) are rebuilt under -fsanitize=thread in build-thread/ and
#     rerun.  TSAN=0 skips.
#   * Bench report — the fast benchmarks with committed baselines
#     (fleet_scale, engine, autoscale, policy_mix, obs_overhead, chaos,
#     frontier, plus a reduced-size fleet_huge) run once and
#     tools/compare_bench.py diffs their wall times, peak RSS, and
#     sustainable-rps knees (bench_frontier's gate lines) against
#     bench/baselines/, flagging >20% regressions as warnings and failing
#     the build past BENCH_FATAL_PCT=35 (far beyond scheduler noise), on a
#     benchmark that exits nonzero, or on one missing from the fresh set
#     (--require).  BENCH_FATAL_PCT=0 keeps wall-time diffs warn-only
#     (hosted CI uses this: the committed baselines are recorded on dev
#     hardware, and a different CPU class legitimately moves sub-second
#     walls past any fixed threshold) — failed or missing required
#     benchmarks stay fatal either way.  The report is also written to
#     $BUILD_DIR/bench-report/compare_report.txt so hosted CI can upload
#     it next to the BENCH_*.json artifacts.  BENCH=0 skips.
#
# Environment knobs:
#
#   BUILD_TYPE=Debug ci/verify.sh    # CMAKE_BUILD_TYPE for the tier-1 tree
#                                    # (hosted CI runs a {gcc,clang} x
#                                    # {Release,Debug} matrix through this)
#   SANITIZE=address ci/verify.sh    # AddressSanitizer, full suite
#   SANITIZE=thread  ci/verify.sh    # ThreadSanitizer, full suite
#   SANITIZE=undefined ci/verify.sh  # UBSan (hard-fail reports), full suite
#   LINT=0 ci/verify.sh              # skip the ci/lint.sh static-analysis
#                                    # gate (it also runs standalone as the
#                                    # hosted 'lint' job)
#
# Sanitizer mode wires the JANUS_SANITIZE CMake toggle and keeps a separate
# build tree so instrumented and plain objects never mix.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

SANITIZE="${SANITIZE:-}"
BUILD_TYPE="${BUILD_TYPE:-}"
BUILD_DIR=build
CMAKE_ARGS=()
if [[ -n "$BUILD_TYPE" ]]; then
  CMAKE_ARGS+=("-DCMAKE_BUILD_TYPE=${BUILD_TYPE}")
fi
case "$SANITIZE" in
  "") ;;
  address|thread|undefined)
    BUILD_DIR="build-${SANITIZE}"
    CMAKE_ARGS+=("-DJANUS_SANITIZE=${SANITIZE}")
    ;;
  *)
    echo "ci/verify.sh: SANITIZE must be empty, 'address', 'thread'," \
         "or 'undefined' (got '${SANITIZE}')" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

if [[ -z "$SANITIZE" ]]; then
  if [[ "${LINT:-1}" != "0" ]]; then
    echo "== verify: static-analysis gate (ci/lint.sh) =="
    # The tier-1 configure above already exported compile_commands.json
    # into $BUILD_DIR, so this adds seconds, not a reconfigure.
    BUILD_DIR="$BUILD_DIR" ci/lint.sh
  fi
  if [[ "${ASAN:-1}" != "0" ]]; then
    echo "== verify: ASan/UBSan pass (sim/fleet/exp/obs/chaos/stats suites, CLI scripts) =="
    cmake -B build-asan -S . -DJANUS_SANITIZE=address+undefined
    cmake --build build-asan -j --target test_sim test_fleet test_exp \
      test_obs test_chaos test_stats janus_cli
    (cd build-asan && ctest -R \
       'test_(sim|fleet|exp|obs|chaos|stats)$|test_cli_(help|fleet_policy|chaos)$' \
       --output-on-failure -j)
  fi
  if [[ "${TSAN:-1}" != "0" ]]; then
    echo "== verify: ThreadSanitizer pass (fleet/common/sim/obs/chaos/frontier suites) =="
    cmake -B build-thread -S . -DJANUS_SANITIZE=thread
    cmake --build build-thread -j --target test_fleet test_common test_sim \
      test_obs test_chaos test_frontier
    (cd build-thread && ctest -R 'test_(fleet|common|sim|obs|chaos|frontier)' \
       --output-on-failure -j)
  fi
  if [[ "${BENCH:-1}" != "0" ]]; then
    BENCH_FATAL_PCT="${BENCH_FATAL_PCT:-35}"
    FATAL_ARGS=()
    if [[ "$BENCH_FATAL_PCT" != "0" ]]; then
      FATAL_ARGS=(--fatal-pct "$BENCH_FATAL_PCT")
      echo "== verify: bench wall-time report (fatal past ${BENCH_FATAL_PCT}%) =="
    else
      echo "== verify: bench wall-time report (warn-only walls; missing/failed still fatal) =="
    fi
    # Fresh directory every run: a stale JSON from a previous run must
    # never satisfy the comparison, and a bench that fails, vanishes, or
    # is silently dropped from this list must fail the build — hence
    # --require and no '|| true'.  fleet_huge runs a reduced-size variant
    # (JANUS_HUGE_TENANTS; the committed baseline is full-scale, so its
    # wall/RSS deltas read as improvements — the gate here is that the
    # tenant-major streaming path -- 8200 tenants, each shard recycling
    # one calendar across thousands of them -- completes and stays
    # bit-identical across shard counts).
    BENCH_SET=(fleet_scale engine autoscale policy_mix obs_overhead chaos
               frontier fleet_huge)
    rm -rf "$BUILD_DIR/bench-report"
    mkdir -p "$BUILD_DIR/bench-report"
    # JANUS_FRONTIER_OUT: bench_frontier drops its per-policy
    # frontier_<family>.{json,csv} artifacts next to the BENCH_*.json so
    # hosted CI uploads the full frontier, not just the knee gate lines.
    JANUS_HUGE_TENANTS="${JANUS_HUGE_TENANTS:-8200}" \
      JANUS_FRONTIER_OUT="$BUILD_DIR/bench-report" \
      "$BUILD_DIR/bench/bench_main" --outdir "$BUILD_DIR/bench-report" \
      "${BENCH_SET[@]}"
    tools/compare_bench.py --fresh "$BUILD_DIR/bench-report" \
      ${FATAL_ARGS[@]+"${FATAL_ARGS[@]}"} \
      --require "$(IFS=,; echo "${BENCH_SET[*]}")" 2>&1 \
      | tee "$BUILD_DIR/bench-report/compare_report.txt"
  fi
fi
