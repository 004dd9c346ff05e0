#!/usr/bin/env bash
# Tier-1 verification gate: Release build + full ctest (which includes the
# paper reproductions) + a compile-only build of the perfbench benchmark +
# bench and example smoke, an ASan/UBSan Debug build + full ctest, and a
# ThreadSanitizer build running the concurrency-sensitive suites
# (operators, differential, worker pool).
# Run from anywhere.
#
# Usage: check.sh [release|asan|tsan|all]   (default: all)
# CI runs the stages as separate jobs; `all` reproduces the full gate
# locally.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
STAGE="${1:-all}"

run_suite() {
  local build_dir="$1"
  shift
  echo "=== configure: ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S "${ROOT}" "$@"
  echo "=== build: ${build_dir} ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ctest: ${build_dir} ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

if [[ "${STAGE}" == "release" || "${STAGE}" == "all" ]]; then
  run_suite "${ROOT}/build" -DCMAKE_BUILD_TYPE=Release

  # The repository benchmark (perfbench/) is a project of its own over
  # src/; compile it (no run) so a signature change to anything it calls
  # fails here rather than only when the benchmark runs.
  echo "=== build: ${ROOT}/build/perfbench (compile only) ==="
  cmake -B "${ROOT}/build/perfbench" -S "${ROOT}/perfbench" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "${ROOT}/build/perfbench" --target perfbench -j "${JOBS}"

  # ctest ran the deterministic paper reproductions (paper_reproductions);
  # the wall-clock entries stay out of ctest, so run them once here in an
  # optimised build so they cannot rot.
  echo "=== paper: timing entries ==="
  "${ROOT}/build/bench/paper" fig10_score_time table2_cost_model \
    ablation_optimisations

  # The Release tree builds the bench binaries; smoke-run the SQL pipeline
  # bench (tiny scale, seed-vs-pipeline cross-validation across the
  # parallelism sweep) so it cannot rot.
  echo "=== bench smoke: sql_pipeline ==="
  "${ROOT}/build/bench/sql_pipeline" --smoke \
    "${ROOT}/build/BENCH_sql_pipeline.smoke.json"

  # End-to-end EXPLAIN statement: ranking parity across the parallelism
  # sweep.
  # Concurrent ingest over the tiered store: streamed write + query
  # threads, then three-way parity (live tiered / bulk reference / seed
  # interpreter) and proof the grid queries were tier-served.
  echo "=== bench smoke: ingest ==="
  "${ROOT}/build/bench/ingest" --smoke \
    "${ROOT}/build/BENCH_ingest.smoke.json"

  echo "=== bench smoke: explain_rca ==="
  "${ROOT}/build/bench/explain_rca" --smoke \
    "${ROOT}/build/BENCH_explain.smoke.json"

  # SIMD kernel gates: scalar-vs-AVX2 differential correctness, the
  # silent-fallback dispatch check (an AVX2-capable host must auto-select
  # the AVX2 table), and one timed repetition per kernel. The >=2x speedup
  # gate only runs in full (non-smoke) invocations.
  echo "=== bench smoke: kernels_microbench ==="
  "${ROOT}/build/bench/kernels_microbench" --smoke \
    "${ROOT}/build/BENCH_kernels.smoke.json"
  # Smoke-run every example (built above): each exits non-zero on an
  # error, and most also when their walkthrough's outcome is wrong.
  for example in quickstart conditioning fault_injection periodic_rca \
      explain_sql server_client; do
    echo "=== example smoke: ${example} ==="
    "${ROOT}/build/examples/${example}" >/dev/null
  done

  # Concurrent server: start the daemon on an ephemeral port, drive it
  # with concurrent client sessions over real TCP, then run the server
  # bench's smoke sweep (1/8 sessions, every reply parity-gated against
  # Engine::Query, zero-new-pools gate).
  echo "=== server smoke: explainit_serverd + concurrent clients ==="
  SERVERD_LOG="${ROOT}/build/serverd.smoke.log"
  "${ROOT}/build/src/server/explainit_serverd" --port=0 --minutes=120 \
    > "${SERVERD_LOG}" &
  SERVERD_PID=$!
  trap 'kill "${SERVERD_PID}" 2>/dev/null || true' EXIT
  SERVERD_PORT=""
  for _ in $(seq 1 100); do
    SERVERD_PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' \
      "${SERVERD_LOG}" 2>/dev/null || true)"
    [[ -n "${SERVERD_PORT}" ]] && break
    sleep 0.1
  done
  if [[ -z "${SERVERD_PORT}" ]]; then
    echo "explainit_serverd did not come up:" >&2
    cat "${SERVERD_LOG}" >&2
    exit 1
  fi
  "${ROOT}/build/src/server/explainit_server_smoke" \
    --port="${SERVERD_PORT}" --sessions=8
  kill "${SERVERD_PID}"
  wait "${SERVERD_PID}" 2>/dev/null || true
  trap - EXIT

  echo "=== bench smoke: server ==="
  "${ROOT}/build/bench/server" --smoke "${ROOT}/build/BENCH_server.smoke.json"

  # Standing-query monitor: sliding-window runs under live ingestion must
  # be byte-identical to bounded one-shot EXPLAINs, the shared scan must
  # reuse window overlap, and a triggered monitor must fire on an injected
  # §5.1 packet-drop fault with the true cause in a top-10.
  echo "=== bench smoke: monitor ==="
  "${ROOT}/build/bench/monitor" --smoke \
    "${ROOT}/build/BENCH_monitor.smoke.json"
fi

if [[ "${STAGE}" == "asan" || "${STAGE}" == "all" ]]; then
  run_suite "${ROOT}/build-asan" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DEXPLAINIT_SANITIZE=ON
fi

if [[ "${STAGE}" == "tsan" || "${STAGE}" == "all" ]]; then
  # ThreadSanitizer job: the suites that drive the morsel-parallel
  # operators, the partitioned join/sort/materialisation paths, the
  # worker pool itself, the tiered store's write/scan/seal concurrency,
  # the monitor scheduler/write-tap/shared-scan paths, Session vs
  # EXPLAIN parity at parallelism 4 through the shared family builder,
  # the engine and pipeline suites, which run Session and EXPLAIN at
  # the engine's default parallelism (hardware concurrency), and the
  # table and family-builder suites, whose dictionaries and code arrays
  # are shared read-only across shards.
  # (ASan and TSan cannot share a build tree.)
  echo "=== configure: ${ROOT}/build-tsan (ThreadSanitizer) ==="
  cmake -B "${ROOT}/build-tsan" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DEXPLAINIT_TSAN=ON
  echo "=== build: ${ROOT}/build-tsan ==="
  cmake --build "${ROOT}/build-tsan" -j "${JOBS}"
  echo "=== ctest (tsan): operator, differential and worker-pool suites ==="
  ctest --test-dir "${ROOT}/build-tsan" --output-on-failure -j "${JOBS}" \
    -R 'operators_test|differential_test|executor_test|planner_test|logical_plan_test|optimizer_test|fuzz_roundtrip_test|worker_pool_test|explain_e2e_test|server_test|concurrency_test|store_test|tiered_store_test|ranking_test|ridge_test|anomaly_test|monitor_test|monitor_stress_test|engine_test|pipeline_test|table_test|feature_family_test'
fi

echo "=== checks passed (${STAGE}) ==="
