#!/usr/bin/env bash
# Full local check:
#
#   1. analyzers (scripts/lint.py): first the --self-test, which replays the
#      seeded-violation fixtures in scripts/lint_fixtures/ through every
#      rule (a lint that stops firing is worse than no lint), then the tree
#      lint itself — secret-taint, untrusted-taint, [[nodiscard]] markers,
#      retry taxonomy, and lock-rank hygiene (freshness-gate ordering is
#      structural: only core/parallel_verify.h's RunVerifier can build a
#      SigBatch, pinned by compile_fail_sig_batch_outside_run_verifier and
#      the freshness_test eight-verifier matrix)
#   2. Release build with -Werror + full ctest (includes the negative-compile
#      harness of tests/compile_fail/ and the lockdep suite, which self-skips
#      its violation tests in Release where APQA_LOCKDEP is off), then the
#      crypto suites again under APQA_FORCE_PORTABLE=1 so the portable
#      Montgomery/no-accel arm of the runtime dispatch stays covered (the
#      pairing suites — Pairing*, MultiPairing* — CpAbeTest, whose Decrypt
#      is the one MultiPairing caller outside ABS, and AbsTest, since every
#      signature check runs through MsmShared and the batch accumulator),
#      then
#      a duplicate-(bench,row) gate over the checked-in BENCH_*.json files
#   3. clang-format diff + clang-tidy on the crypto layer (skipped with a
#      notice when the clang tools are not installed — the default
#      toolchain here is GCC)
#   4. UBSan build of the crypto stack (curve / msm / pairing / abs / ct)
#   5. ASan build of the hostile-bytes suite (serde / fault injection / fuzz,
#      plus db_test, whose corrupted-import regressions feed a rewritten ADS
#      bundle to the SP's VO builders)
#   6. TSan build of the thread pool and the parallel SP/ADS paths; TSan
#      auto-enables APQA_LOCKDEP, so this stage also runs the lockdep suite
#      (rank-violation detection + the service rank-order regression) with
#      an explicit timeout, the query service's session handling (net_test,
#      including the ended-session reaping test), plus the crash-recovery/
#      failover suite
#      (recovery_test: seeded disk-fault chaos, durable-server restart,
#      byzantine-replica quarantine) whose server drain/snapshot and
#      failover paths are the newest thread-shaped code in the tree
#   7. MSan constant-time oracle (tests/ct_check_test.cc with poisoned
#      secrets) — clang-only; skipped with a notice under GCC, where the
#      trace-equivalence tests in ct_check_test (already run in step 2)
#      cover the same ladders
#   8. perf smoke: one fast-mode run of bench_pairing_micro with the JSON
#      sink enabled; fails if the expected rows never reach the file or if
#      whole-VO batched verification is not at least 2x the serial exact
#      reference arm (range_vo_verify_batched <= 0.5x
#      range_vo_verify_serial); then one fast-mode run of bench_msm_micro
#      that must emit the mont_mul_{portable,accel} kernel rows, the
#      mont_kernel_bitmatch differential row (the bench aborts on any
#      accel/portable representation mismatch, so the row doubles as the
#      oracle), the g1_{wnaf,mul_glv,fixed_base} scalar-mult rows, the
#      {g1,g2}_ct_mul constant-pattern ladder rows and the
#      abs_relax_lacked9 Relax row; then
#      one fast-mode run of bench_net_service that must emit the
#      update_latency_vs_batch_{1,16,256} maintenance rows and the
#      recovery_time_vs_wal_len_{4,16,64} crash-recovery rows into
#      BENCH_update.json
#
# Usage: scripts/check.sh [--quick|--skip-sanitize]
#   --quick          analyzers + Release build + ctest only
#   --skip-sanitize  like --quick, kept for compatibility
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
case "${1:-}" in
  --quick|--skip-sanitize) QUICK=1 ;;
esac

echo "=== analyzers (lint self-test + tree lint) ==="
python3 scripts/lint.py --self-test
python3 scripts/lint.py

echo "=== build (Release) ==="
cmake -B build -S . -DAPQA_WERROR=ON >/dev/null
cmake --build build -j

echo "=== ctest ==="
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "=== ctest (forced-portable kernels) ==="
# APQA_FORCE_PORTABLE=1 pins the portable CIOS multiply and re-runs the
# crypto suites, so the fallback arm of the runtime dispatch (non-BMI2/ADX
# hosts) stays covered even on machines where the accelerated kernel is
# what normally executes. The bitmatch differential inside field_test then
# proves the two arms agree representation-for-representation.
(cd build && APQA_FORCE_PORTABLE=1 ctest --output-on-failure -j "$(nproc)" \
  -R '^(BigInt|FieldConstants|Fp|Fr|Glv|G1|G2|Pairing|Msm|FixedBase|Batch|MixedAdd|MultiPairing|Ct|CpAbe|Abs)')

echo "=== bench sink hygiene (checked-in BENCH_*.json) ==="
# The JSON trajectory files must hold exactly one section per bench run:
# bench_util.h compacts repeated runs in place, and this gate keeps a
# stray hand-edit or an old binary from re-introducing duplicate
# (bench, row) pairs.
python3 - BENCH_*.json <<'EOF'
import json, sys
bad = 0
for path in sys.argv[1:]:
    seen = set()
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            key = (r["bench"], r["row"])
            if key in seen:
                print(f"{path}:{n}: duplicate row {key}", file=sys.stderr)
                bad = 1
            seen.add(key)
sys.exit(bad)
EOF

if [[ "$QUICK" == 1 ]]; then
  echo "=== quick mode: sanitizer and clang-tool stages skipped ==="
  exit 0
fi

echo "=== clang-format / clang-tidy ==="
if command -v clang-format >/dev/null 2>&1; then
  # Diff-only: fails if the tree is not formatted.
  find src tests bench -name '*.cc' -o -name '*.h' | \
    xargs clang-format --dry-run -Werror
else
  echo "clang-format not installed; skipping format check"
fi
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p build --quiet src/crypto/*.cc src/abs/*.cc src/cpabe/*.cc
else
  echo "clang-tidy not installed; skipping tidy pass"
fi

echo "=== build (UBSan) ==="
cmake -B build-ubsan -S . -DAPQA_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j --target \
  curve_test msm_test pairing_test abs_test ct_check_test

echo "=== crypto tests under UBSan ==="
for t in curve_test msm_test pairing_test abs_test ct_check_test; do
  echo "--- $t ---"
  ./build-ubsan/tests/"$t" --gtest_brief=1
done

echo "=== build (ASan) ==="
cmake -B build-asan -S . -DAPQA_SANITIZE=address >/dev/null
cmake --build build-asan -j --target \
  fault_injection_test serde_test fuzz_vo_deserialize db_test

echo "=== hostile-input tests under ASan ==="
./build-asan/tests/serde_test --gtest_brief=1
./build-asan/tests/fault_injection_test --gtest_brief=1
./build-asan/tests/fuzz_vo_deserialize
./build-asan/tests/db_test --gtest_brief=1

echo "=== build (TSan) ==="
cmake -B build-tsan -S . -DAPQA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target \
  thread_pool_test core_test net_test lockdep_test recovery_test

echo "=== threaded paths under TSan ==="
# TSan configures APQA_LOCKDEP=ON, so every RankedMutex acquisition is
# rank-checked here; the lockdep suite exercises the validator itself plus
# the e2e server/client/update rank-order regression. Driven through ctest
# for the explicit per-test TIMEOUT (a lockdep abort that wedges a session
# thread must fail the stage, not hang it).
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 ctest \
  -R 'Lockdep(Test|DeathTest|ServiceTest)\.' \
  --timeout 300 --output-on-failure)
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/thread_pool_test \
  --gtest_brief=1
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/core_test \
  --gtest_filter='ParallelPathTest.*' --gtest_brief=1
# The query service is the most thread-shaped code in the tree: session
# threads (reaped on attach once ended, joined on stop), a bounded pool,
# chaos-injected retries, drain-then-stop. The update/query interleaving
# chaos test runs separately below.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/net_test \
  --gtest_filter='-UpdateChaosTest.*' --gtest_brief=1
# Dynamic-maintenance interleavings: a DO pushes epoch advances while
# queries are in flight over fault-injected transports. Driven through
# ctest so the explicit per-test TIMEOUT (tests/CMakeLists.txt, 300 s for
# net_test) kills a TSan-induced deadlock instead of wedging the stage;
# --timeout backstops any test that escaped property discovery.
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 ctest \
  -R 'UpdateChaosTest\.ConcurrentUpdatesAndQueriesStayCoherent' \
  --timeout 300 --output-on-failure)
# Crash recovery + failover: the drain-then-final-snapshot path in
# SpServer::Stop, journal-before-ack under sp_mu_, concurrent Stop()
# callers, and the circuit-breaker/quarantine state machine all hold locks
# across threads — exactly what TSan (and the lockdep shim it enables) is
# for. Driven through ctest for the explicit per-test timeout: a recovery
# that wedges mid-replay must fail the stage, not hang it.
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 ctest \
  -R '(JournalTest|FaultyFileTest|SpStateStoreTest|CrashRecoveryChaosTest|DurableServerTest|FailoverTest)\.' \
  --timeout 300 --output-on-failure)

echo "=== constant-time oracle (MSan) ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-msan -S . -DAPQA_SANITIZE=memory \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-msan -j --target ct_check_test
  ./build-msan/tests/ct_check_test --gtest_brief=1
else
  echo "clang++ not installed; MSan CtPoison oracle skipped" \
       "(trace-equivalence tests in ct_check_test already ran)"
fi

echo "=== perf smoke (bench_pairing_micro, fast mode) ==="
cmake --build build -j --target bench_pairing_micro >/dev/null
PERF_JSON=$(mktemp /tmp/BENCH_pairing_smoke.XXXXXX.json)
rm -f "$PERF_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$PERF_JSON" \
  ./build/bench/bench_pairing_micro >/dev/null
for row in pairing_prepared abs_verify_prepared_len12 \
           range_vo_verify_serial range_vo_verify_batched \
           abs_batch_verify_n8 batch_bisect_tamper_1; do
  if ! grep -q "\"row\":\"$row\"" "$PERF_JSON"; then
    echo "perf smoke: row '$row' missing from $PERF_JSON" >&2
    exit 1
  fi
done
# Whole-VO batching must beat the serial exact reference arm by >= 2x even
# in the fast configuration (the full bench measures >= ~9x; the loose gate
# keeps the smoke robust to noisy single-iteration timings).
python3 - "$PERF_JSON" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        rows[r["row"]] = r["ms"]  # last write wins
serial, batched = rows["range_vo_verify_serial"], rows["range_vo_verify_batched"]
if batched > 0.5 * serial:
    sys.exit(f"perf smoke: batched {batched:.1f} ms > 0.5 * serial {serial:.1f} ms")
print(f"perf smoke: batched {batched:.1f} ms vs serial {serial:.1f} ms "
      f"({serial / batched:.1f}x)")
EOF
rm -f "$PERF_JSON"

echo "=== perf smoke (bench_msm_micro kernel rows, fast mode) ==="
cmake --build build -j --target bench_msm_micro >/dev/null
MSM_JSON=$(mktemp /tmp/BENCH_msm_smoke.XXXXXX.json)
rm -f "$MSM_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$MSM_JSON" \
  ./build/bench/bench_msm_micro >/dev/null
# mont_kernel_bitmatch only reaches the file if the accel/portable sweep
# found zero representation mismatches (the bench aborts otherwise), so a
# missing row is a failed differential, not just a missing measurement.
for row in mont_mul_portable mont_mul_accel mont_kernel_bitmatch \
           g1_wnaf g1_mul_glv g1_fixed_base g1_ct_mul g2_ct_mul \
           abs_relax_lacked9; do
  if ! grep -q "\"row\":\"$row\"" "$MSM_JSON"; then
    echo "perf smoke: row '$row' missing from $MSM_JSON" >&2
    exit 1
  fi
done
rm -f "$MSM_JSON"

echo "=== perf smoke (bench_net_service update rows, fast mode) ==="
cmake --build build -j --target bench_net_service >/dev/null
UPDATE_JSON=$(mktemp /tmp/BENCH_update.XXXXXX.json)
rm -f "$UPDATE_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_QUERIES=1 APQA_BENCH_JSON="$UPDATE_JSON" \
  ./build/bench/bench_net_service >/dev/null
for row in update_latency_vs_batch_1 update_latency_vs_batch_16 \
           update_latency_vs_batch_256 recovery_time_vs_wal_len_4 \
           recovery_time_vs_wal_len_16 recovery_time_vs_wal_len_64; do
  if ! grep -q "\"bench\":\"update\",\"row\":\"$row\"" "$UPDATE_JSON"; then
    echo "perf smoke: row '$row' missing from $UPDATE_JSON" >&2
    exit 1
  fi
done
rm -f "$UPDATE_JSON"

echo "=== all checks passed ==="
