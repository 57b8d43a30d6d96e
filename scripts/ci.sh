#!/usr/bin/env bash
# CI entry point: configure, build and test every preset (release,
# release-o3, asan, tsan), then run the bench regression gate against the
# committed BENCH_eval_engine.json. The fault/resilience suite is labeled `fault` and
# the crash-consistency suite (journal round-trips, kill-point recovery, the
# randomized kill+recover fuzzer) is labeled `recovery`, and the live
# observability plane (telemetry server sockets + thread, trace
# propagation, the SLO/alert engine) is labeled `obs_live`, and the
# byte-level fuzzers (snapshot decoder, journal file, timeline CSV,
# knowledge-DB CSV, analyzer token soup) ride in tests/test_fuzz.cpp under
# the `fuzz` label; all run under every preset, so the sanitizers see them
# on each CI pass.
# A quick sanitizer-only sweep of one suite is:
#
#   PRESETS="asan tsan" CTEST_ARGS="-L fault" scripts/ci.sh
#   PRESETS="asan tsan" CTEST_ARGS="-L recovery" scripts/ci.sh
#   PRESETS="asan tsan" CTEST_ARGS="-L obs_live" scripts/ci.sh
#   PRESETS="asan" CTEST_ARGS="-L fuzz" scripts/ci.sh
#
# On a ctest failure the fault integration suite's flight-recorder dump (a
# run record written into $CLIP_FLIGHT_DIR — see docs/observability.md) is
# archived under ci-artifacts/<preset>/ before exiting, so the failing run's
# telemetry timeline survives the red build.
#
# Environment:
#   PRESETS        space-separated subset of presets (default: all four)
#   CTEST_ARGS     extra arguments for ctest (e.g. "-L fault", "-R Queue")
#   JOBS           parallelism for build and test (default: nproc); the
#                  gate's bench sweep uses BENCH_eval_engine.json's "jobs"
#   MAX_SLOWDOWN   regression-gate wall-clock threshold in percent (15)
#   SKIP_GATE      set to 1 to skip the regression-gate step
#   SKIP_LINT      set to 1 to skip the clip-lint stage
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS="${PRESETS:-release release-o3 asan tsan}"
JOBS="${JOBS:-$(nproc)}"
MAX_SLOWDOWN="${MAX_SLOWDOWN:-15}"
ARTIFACTS="ci-artifacts"

# Stage 0: static analysis. Runs before the build matrix — a determinism,
# crash-consistency, lock-discipline or error-handling invariant broken at
# the token level fails fast, before any compile minute is spent. Fails on
# any unsuppressed finding; the JSON report (suppression-count trend
# included) and the SARIF 2.1.0 report are archived with the artifacts, and
# the scan's wall time is printed.
if [ "${SKIP_LINT:-0}" != "1" ]; then
  echo "==> [lint] clip-analyze full-tree scan (src examples bench tests tools)"
  mkdir -p "$ARTIFACTS"
  t0=$(date +%s%N)
  scripts/lint.sh --json "$ARTIFACTS/lint_report.json" \
    --sarif "$ARTIFACTS/lint_report.sarif" --quiet
  t1=$(date +%s%N)
  echo "==> [lint] clean; $(( (t1 - t0) / 1000000 )) ms"
fi

for preset in $PRESETS; do
  echo "==> [$preset] configure"
  cmake --preset "$preset" >/dev/null
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==> [$preset] test"
  flight_dir="$ARTIFACTS/$preset/flight"
  rm -rf "$flight_dir" && mkdir -p "$flight_dir"
  # shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
  if ! CLIP_FLIGHT_DIR="$PWD/$flight_dir" \
      ctest --preset "$preset" -j "$JOBS" --output-on-failure ${CTEST_ARGS:-}; then
    echo "==> [$preset] ctest FAILED — flight-recorder artifacts:" >&2
    find "$flight_dir" -type f | sed 's/^/      /' >&2
    exit 1
  fi
  rm -rf "$ARTIFACTS/$preset"  # green run: nothing worth archiving
done

if [ "${SKIP_GATE:-0}" != "1" ] && [ -d build/bench ]; then
  echo "==> [gate] regression gate selftest"
  scripts/regression_gate.sh --selftest
  # Sweep at the committed file's --jobs, not $JOBS: the gate only gives a
  # verdict on files taken at the same parallelism (exit 2 otherwise).
  gate_jobs=$(sed -n 's/^ *"jobs": \([0-9][0-9]*\).*/\1/p' \
    BENCH_eval_engine.json | head -n 1)
  echo "==> [gate] bench sweep (release build, jobs ${gate_jobs:-$JOBS})"
  mkdir -p "$ARTIFACTS"
  sh bench/run_benches.sh build "${gate_jobs:-$JOBS}" "$ARTIFACTS/BENCH_fresh.json" \
    "$ARTIFACTS/BENCH_redist_fresh.json" "$ARTIFACTS/BENCH_recovery_fresh.json" \
    "$ARTIFACTS/BENCH_obs_fresh.json"
  echo "==> [gate] compare against committed BENCH_eval_engine.json"
  scripts/regression_gate.sh --max-slowdown "$MAX_SLOWDOWN" \
    BENCH_eval_engine.json "$ARTIFACTS/BENCH_fresh.json"
  echo "==> [gate] batch-core throughput floor"
  scripts/regression_gate.sh --batch --max-slowdown "$MAX_SLOWDOWN" \
    BENCH_eval_engine.json "$ARTIFACTS/BENCH_fresh.json"
  echo "==> [gate] redistribution improvement floor"
  scripts/regression_gate.sh --redist "$ARTIFACTS/BENCH_redist_fresh.json"
  echo "==> [gate] crash-consistency: byte-identical recovery + journal overhead"
  scripts/regression_gate.sh --recovery "$ARTIFACTS/BENCH_recovery_fresh.json"
  echo "==> [gate] observability plane: purity + endpoints + duty-cycle overhead"
  scripts/regression_gate.sh --obs "$ARTIFACTS/BENCH_obs_fresh.json"
fi

echo "==> all presets passed: $PRESETS"
