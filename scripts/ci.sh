#!/usr/bin/env bash
# Tier-1 verification, sanitizer passes, and the full correctness matrix.
#
#   scripts/ci.sh            # plain build + full ctest (the tier-1 gate)
#   scripts/ci.sh tsan       # + ThreadSanitizer pass over obs/core/mw tests
#   scripts/ci.sh asan       # + ASan+UBSan pass over the same set
#   scripts/ci.sh all        # plain + tsan + asan
#   scripts/ci.sh --matrix   # every flavor below; fails on the first red
#
# Matrix flavors (DESIGN.md §8):
#   release      plain build, full test suite (the tier-1 gate)
#   tsan         ThreadSanitizer over the concurrency-heavy tests
#   asan-ubsan   AddressSanitizer + UBSanitizer over the same set
#   debug-checks -DTXREP_DEBUG_CHECKS=ON: runtime lock-order registry +
#                TM invariant audits active during the full suite
#   annotations  clang -Werror=thread-safety compile of everything
#                (SKIP when clang++ is not installed)
#   tidy         clang-tidy with the checked-in .clang-tidy
#                (SKIP when clang-tidy is not installed)
#   analyze      tools/analyze/txrep-analyze: determinism audit,
#                Status-discard, lock-annotation completeness,
#                blocking-under-lock + its fixture/lint-regression tests
#                (SKIP when python3 is not installed)
#   lint         scripts/lint.sh (raw-mutex & metric-name rules)
#
# Each flavor builds into its own build-<flavor>/ tree so nothing disturbs
# the primary build/.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-plain}"

# Concurrency-heavy tests worth re-running under a sanitizer: the metrics
# hot paths (sharded counters, gauges, histograms), the TM pools that hammer
# them, the middleware threads that stamp stage latencies, the
# correctness-tooling suites themselves, the crash-recovery suites
# (checkpoint writer + restart + online bootstrap + disk-node torn tails),
# whose raw file I/O and background threads are exactly where ASan/UBSan
# earn their keep, the batched apply pipeline (MultiWrite fan-out
# through the cluster dispatch pool + the adaptive batch dispatcher), and
# the tracing subsystem (the seqlock flight recorder's lock-free writer
# protocol plus the SLO watchdog's poller thread are prime tsan targets),
# and the wire replication boundary (frame codec, socket transport threads,
# endpoint session fan-out, reconnect/dedup races — DESIGN.md §13), and the
# optimistic version-latched B-link index (lock-free readers racing writer
# latch hand-over-hand and version publication — DESIGN.md §14), and the
# TPC-C-lite workload suites (multi-table concurrent-vs-serial equivalence
# replay and the open-loop load generator driving a live TM — DESIGN.md
# §15). The schedule-explorer sweep shards (check_schedule_explorer_sweep_*,
# which cover the TPC-C and wire axes too) match `check_`.
SANITIZER_TESTS='obs_|core_tm_|mw_|common_histogram|common_thread_pool|common_blocking_queue|txrep_system|check_|recov_|kv_disk_|kv_batch_|core_batch_|trace_|net_|blink_|workload_'

# Flavor results for the final summary: "name<TAB>PASS|SKIP (reason)".
RESULTS=()

note() { RESULTS+=("$1	$2"); }

print_summary() {
  echo
  echo "=== matrix summary ==="
  printf '%-14s %s\n' "flavor" "result"
  printf '%-14s %s\n' "------" "------"
  for row in "${RESULTS[@]}"; do
    printf '%-14s %s\n' "${row%%	*}" "${row#*	}"
  done
}

run_plain() {
  echo "=== release: plain build + full test suite ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  (cd build && ctest --output-on-failure -j"$(nproc)")
  note release PASS
}

run_sanitized() {
  local kind="$1" dir="build-$1" label="$2"
  echo "=== ${label}: sanitizer pass (${SANITIZER_TESTS}) ==="
  cmake -B "${dir}" -S . -DTXREP_SANITIZE="${kind}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${dir}" -j"$(nproc)"
  (cd "${dir}" && ctest --output-on-failure -j"$(nproc)" \
    -R "${SANITIZER_TESTS}")
  note "${label}" PASS
}

run_debug_checks() {
  echo "=== debug-checks: runtime lock-order + invariant checkers ==="
  cmake -B build-debug-checks -S . -DTXREP_DEBUG_CHECKS=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-debug-checks -j"$(nproc)"
  (cd build-debug-checks && ctest --output-on-failure -j"$(nproc)")
  note debug-checks PASS
}

run_annotations() {
  echo "=== annotations: clang -Werror=thread-safety ==="
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "annotations: SKIP (clang++ not installed)"
    note annotations "SKIP (no clang++)"
    return 0
  fi
  cmake -B build-annotations -S . \
    -DCMAKE_CXX_COMPILER=clang++ -DTXREP_THREAD_SAFETY_ANALYSIS=ON >/dev/null
  cmake --build build-annotations -j"$(nproc)"
  note annotations PASS
}

run_tidy() {
  echo "=== tidy: clang-tidy over src/ ==="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "tidy: SKIP (clang-tidy not installed)"
    note tidy "SKIP (no clang-tidy)"
    return 0
  fi
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  local files
  files=$(find src -name '*.cc')
  # shellcheck disable=SC2086
  clang-tidy -p build-tidy --quiet ${files}
  note tidy PASS
}

run_analyze() {
  echo "=== analyze: txrep-analyze rule families over src/ ==="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "analyze: SKIP (python3 not installed)"
    note analyze "SKIP (no python3)"
    return 0
  fi
  python3 tools/analyze/tests/run_fixture_tests.py
  python3 tools/analyze/tests/run_lint_regression.py
  scripts/analyze.sh build
  note analyze PASS
}

run_lint() {
  echo "=== lint: project grep rules ==="
  scripts/lint.sh
  note lint PASS
}

run_matrix() {
  run_plain
  run_sanitized thread tsan
  run_sanitized address asan-ubsan
  run_debug_checks
  run_annotations
  run_tidy
  run_analyze
  run_lint
  print_summary
}

case "${MODE}" in
  plain) run_plain ;;
  tsan) run_plain; run_sanitized thread tsan ;;
  asan) run_plain; run_sanitized address asan-ubsan ;;
  all) run_plain; run_sanitized thread tsan; run_sanitized address asan-ubsan ;;
  --matrix|matrix) run_matrix ;;
  *) echo "usage: $0 [plain|tsan|asan|all|--matrix]" >&2; exit 2 ;;
esac

echo "ci: OK (${MODE})"
