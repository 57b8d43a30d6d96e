#!/usr/bin/env sh
# Bench regression gate: compare a freshly produced BENCH_eval_engine.json
# against the committed one and fail on regressions.
#
# Usage: scripts/regression_gate.sh [options] <committed.json> <fresh.json>
#        scripts/regression_gate.sh --batch <committed.json> <fresh.json>
#        scripts/regression_gate.sh --redist <BENCH_redist.json>
#        scripts/regression_gate.sh --recovery <BENCH_recovery.json>
#        scripts/regression_gate.sh --obs <BENCH_obs.json>
#        scripts/regression_gate.sh --selftest
#
# Options:
#   --max-slowdown PCT  fail when a bench's engine wall-clock regresses by
#                       more than PCT percent (default: 15)
#   --min-ms MS         skip the wall-clock check when the committed run was
#                       faster than MS milliseconds — sub-noise benches would
#                       trip the percentage gate on scheduler jitter alone
#                       (default: 50; sim.runs is still checked)
#   --batch             gate the batch core's throughput instead: each bench's
#                       fresh runs_per_sec must stay within --max-slowdown
#                       percent of the committed value. Benches whose
#                       committed engine_ms is below --min-ms are skipped
#                       (their throughput quotient is all jitter), as are
#                       committed files predating the runs_per_sec field.
#   --redist FILE       gate a BENCH_redist.json instead: redistribution must
#                       improve the makespan in at least --min-improved of
#                       the resilience scenarios and must never regress the
#                       ground-truth violation seconds
#   --min-improved N    threshold for --redist (default: 4)
#   --recovery FILE     gate a BENCH_recovery.json instead: every kill point
#                       must recover byte-identically (recovery_failures = 0)
#                       and journaling must cost at most --max-overhead
#                       percent of the journal-off sweep
#   --max-overhead PCT  threshold for --recovery (default: 5)
#   --obs FILE          gate a BENCH_obs.json instead: the fully instrumented
#                       queue run must be byte-identical to the bare one
#                       (identical_reports = 1), all four telemetry endpoints
#                       must respond (endpoints_ok = 4), and telemetry +
#                       tracing must cost at most --max-obs-overhead percent
#                       of the plane-off duty cycle
#   --max-obs-overhead PCT  threshold for --obs (default: 3)
#   --selftest          exercise the gate against synthetic fixtures and exit
#
# Two checks per bench, matched by name:
#   * engine_sim_runs must not increase — the evaluation engine's pruning
#     contract, machine-independent, the strong signal;
#   * engine_ms must not regress past --max-slowdown — only meaningful when
#     both files were produced on the same machine (as in CI, where the
#     committed file's numbers are regenerated per run).
# A bench present in the committed file but missing from the fresh one fails.
# Both modes first check that the two files were produced at the same
# top-level "jobs" (the benches' --jobs): when they differ, the timings are
# not comparable and the gate exits 2 without a verdict.
set -eu

max_slowdown=15
min_ms=50
min_improved=4
max_overhead=5
max_obs_overhead=3
redist_file=""
recovery_file=""
obs_file=""
selftest=0
batch=0

while [ $# -gt 0 ]; do
  case "$1" in
    --max-slowdown) max_slowdown=$2; shift 2 ;;
    --min-ms) min_ms=$2; shift 2 ;;
    --batch) batch=1; shift ;;
    --redist) redist_file=$2; shift 2 ;;
    --min-improved) min_improved=$2; shift 2 ;;
    --recovery) recovery_file=$2; shift 2 ;;
    --max-overhead) max_overhead=$2; shift 2 ;;
    --obs) obs_file=$2; shift 2 ;;
    --max-obs-overhead) max_obs_overhead=$2; shift 2 ;;
    --selftest) selftest=1; shift ;;
    -h|--help) sed -n '2,53p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    -*) echo "unknown option: $1" >&2; exit 2 ;;
    *) break ;;
  esac
done

# field <file> <bench-name> <key> -> value, empty when absent.
field() {
  sed -n "s/.*\"name\": \"$2\".*\"$3\": \([0-9][0-9]*\).*/\1/p" "$1" \
    | head -n 1
}

names() {
  sed -n 's/.*"name": "\([^"]*\)".*/\1/p' "$1"
}

stamp() {
  sha=$(sed -n 's/.*"git_sha": "\([^"]*\)".*/\1/p' "$1" | head -n 1)
  when=$(sed -n 's/.*"date_utc": "\([^"]*\)".*/\1/p' "$1" | head -n 1)
  echo "${sha:-unstamped}${when:+ @ $when}"
}

# comparable <committed.json> <fresh.json> -> 0 when both files record the
# same top-level "jobs", 2 (no verdict) otherwise.
comparable() {
  old_jobs=$(top_field "$1" jobs)
  new_jobs=$(top_field "$2" jobs)
  [ "$old_jobs" = "$new_jobs" ] && return 0
  echo "not comparable: committed jobs ${old_jobs:-unset}, fresh jobs ${new_jobs:-unset} (rerun bench/run_benches.sh at jobs ${old_jobs:-?})" >&2
  return 2
}

gate() { # gate <committed.json> <fresh.json> -> 0 pass, 1 fail, 2 not comparable
  committed=$1
  fresh=$2
  [ -f "$committed" ] || { echo "gate: no such file: $committed" >&2; return 1; }
  [ -f "$fresh" ] || { echo "gate: no such file: $fresh" >&2; return 1; }
  comparable "$committed" "$fresh" || return 2
  echo "gate: committed $(stamp "$committed") vs fresh $(stamp "$fresh")" >&2

  failures=0
  for b in $(names "$committed"); do
    old_ms=$(field "$committed" "$b" engine_ms)
    new_ms=$(field "$fresh" "$b" engine_ms)
    old_runs=$(field "$committed" "$b" engine_sim_runs)
    new_runs=$(field "$fresh" "$b" engine_sim_runs)
    if [ -z "$new_ms" ] || [ -z "$new_runs" ]; then
      echo "FAIL $b: missing from fresh results" >&2
      failures=$((failures + 1))
      continue
    fi
    if [ -n "$old_runs" ] && [ "$new_runs" -gt "$old_runs" ]; then
      echo "FAIL $b: engine_sim_runs regressed $old_runs -> $new_runs" >&2
      failures=$((failures + 1))
    fi
    if [ -n "$old_ms" ] && [ "$old_ms" -ge "$min_ms" ]; then
      over=$(awk -v o="$old_ms" -v n="$new_ms" -v p="$max_slowdown" \
        'BEGIN { print (n > o * (1 + p / 100)) ? 1 : 0 }')
      if [ "$over" -eq 1 ]; then
        echo "FAIL $b: engine_ms regressed $old_ms -> $new_ms (> $max_slowdown%)" >&2
        failures=$((failures + 1))
      else
        echo "  ok $b: ${old_ms}ms -> ${new_ms}ms, sim.runs $old_runs -> $new_runs" >&2
      fi
    else
      echo "  ok $b: sim.runs $old_runs -> $new_runs (wall-clock below --min-ms, skipped)" >&2
    fi
  done
  [ $failures -eq 0 ] || { echo "gate: $failures regression(s)" >&2; return 1; }
  echo "gate: pass" >&2
}

gate_batch() { # gate_batch <committed.json> <fresh.json> -> 0 pass, 1 fail, 2 not comparable
  committed=$1
  fresh=$2
  [ -f "$committed" ] || { echo "batch gate: no such file: $committed" >&2; return 1; }
  [ -f "$fresh" ] || { echo "batch gate: no such file: $fresh" >&2; return 1; }
  comparable "$committed" "$fresh" || return 2
  echo "batch gate: committed $(stamp "$committed") vs fresh $(stamp "$fresh")" >&2

  failures=0
  for b in $(names "$committed"); do
    old_ms=$(field "$committed" "$b" engine_ms)
    old_rps=$(field "$committed" "$b" runs_per_sec)
    new_rps=$(field "$fresh" "$b" runs_per_sec)
    if [ -z "$old_rps" ]; then
      echo "  ok $b: committed file predates runs_per_sec, skipped" >&2
      continue
    fi
    if [ -z "$old_ms" ] || [ "$old_ms" -lt "$min_ms" ]; then
      echo "  ok $b: committed engine_ms below --min-ms, throughput skipped" >&2
      continue
    fi
    if [ -z "$new_rps" ]; then
      echo "FAIL $b: runs_per_sec missing from fresh results" >&2
      failures=$((failures + 1))
      continue
    fi
    under=$(awk -v o="$old_rps" -v n="$new_rps" -v p="$max_slowdown" \
      'BEGIN { print (n < o * (100 - p) / 100) ? 1 : 0 }')
    if [ "$under" -eq 1 ]; then
      echo "FAIL $b: runs_per_sec regressed $old_rps -> $new_rps (> $max_slowdown%)" >&2
      failures=$((failures + 1))
    else
      echo "  ok $b: $old_rps -> $new_rps runs/s" >&2
    fi
  done
  [ $failures -eq 0 ] || { echo "batch gate: $failures regression(s)" >&2; return 1; }
  echo "batch gate: pass" >&2
}

# top_field <file> <key> -> top-level integer value, empty when absent.
top_field() {
  sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

gate_redist() { # gate_redist <BENCH_redist.json> -> 0 pass, 1 fail
  f=$1
  [ -f "$f" ] || { echo "redist gate: no such file: $f" >&2; return 1; }
  improved=$(top_field "$f" scenarios_improved)
  regressions=$(top_field "$f" violation_regressions)
  scenarios=$(grep -c '"scenario":' "$f" || true)
  if [ -z "$improved" ] || [ -z "$regressions" ]; then
    echo "redist gate: $f is missing scenarios_improved/violation_regressions" >&2
    return 1
  fi
  failures=0
  if [ "$improved" -lt "$min_improved" ]; then
    echo "FAIL redist: makespan improved in only $improved of $scenarios scenarios (need >= $min_improved)" >&2
    failures=$((failures + 1))
  fi
  if [ "$regressions" -ne 0 ]; then
    echo "FAIL redist: $regressions scenario(s) regressed ground-truth violation seconds" >&2
    failures=$((failures + 1))
  fi
  [ $failures -eq 0 ] || { echo "redist gate: $failures failure(s)" >&2; return 1; }
  echo "redist gate: pass ($improved of $scenarios scenarios improved, 0 violation regressions)" >&2
}

gate_recovery() { # gate_recovery <BENCH_recovery.json> -> 0 pass, 1 fail
  f=$1
  [ -f "$f" ] || { echo "recovery gate: no such file: $f" >&2; return 1; }
  fail_count=$(top_field "$f" recovery_failures)
  overhead=$(top_field "$f" overhead_pct)
  kills=$(top_field "$f" kill_points)
  if [ -z "$fail_count" ] || [ -z "$overhead" ]; then
    echo "recovery gate: $f is missing recovery_failures/overhead_pct" >&2
    return 1
  fi
  failures=0
  if [ "$fail_count" -ne 0 ]; then
    echo "FAIL recovery: $fail_count of ${kills:-?} kill points did not recover byte-identically" >&2
    failures=$((failures + 1))
  fi
  if [ "$overhead" -gt "$max_overhead" ]; then
    echo "FAIL recovery: journal overhead ${overhead}% exceeds --max-overhead ${max_overhead}%" >&2
    failures=$((failures + 1))
  fi
  [ $failures -eq 0 ] || { echo "recovery gate: $failures failure(s)" >&2; return 1; }
  echo "recovery gate: pass (${kills:-?} kill points recovered byte-identically, journal overhead ${overhead}% <= ${max_overhead}%)" >&2
}

gate_obs() { # gate_obs <BENCH_obs.json> -> 0 pass, 1 fail
  f=$1
  [ -f "$f" ] || { echo "obs gate: no such file: $f" >&2; return 1; }
  identical=$(top_field "$f" identical_reports)
  endpoints=$(top_field "$f" endpoints_ok)
  overhead=$(top_field "$f" overhead_pct)
  if [ -z "$identical" ] || [ -z "$endpoints" ] || [ -z "$overhead" ]; then
    echo "obs gate: $f is missing identical_reports/endpoints_ok/overhead_pct" >&2
    return 1
  fi
  failures=0
  if [ "$identical" -ne 1 ]; then
    echo "FAIL obs: instrumented run is not byte-identical to the bare run" >&2
    failures=$((failures + 1))
  fi
  if [ "$endpoints" -ne 4 ]; then
    echo "FAIL obs: only $endpoints of 4 telemetry endpoints responded" >&2
    failures=$((failures + 1))
  fi
  if [ "$overhead" -gt "$max_obs_overhead" ]; then
    echo "FAIL obs: telemetry+tracing overhead ${overhead}% exceeds --max-obs-overhead ${max_obs_overhead}%" >&2
    failures=$((failures + 1))
  fi
  [ $failures -eq 0 ] || { echo "obs gate: $failures failure(s)" >&2; return 1; }
  echo "obs gate: pass (byte-identical reports, 4/4 endpoints, overhead ${overhead}% <= ${max_obs_overhead}%)" >&2
}

if [ "$selftest" -eq 1 ]; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  mk() { # mk <file> <engine_ms> <engine_sim_runs> [runs_per_sec]
    printf '{\n  "git_sha": "fixture",\n  "jobs": 4,\n  "benches": [\n' > "$1"
    if [ -n "${4:-}" ]; then
      printf '    {"name": "fig3", "baseline_ms": 900, "engine_ms": %s, "baseline_sim_runs": 5000, "engine_sim_runs": %s, "runs_per_sec": %s, "batch_runs": 40, "batch_width_p50": 20, "output_identical": true}\n' \
        "$2" "$3" "$4" >> "$1"
    else
      printf '    {"name": "fig3", "baseline_ms": 900, "engine_ms": %s, "baseline_sim_runs": 5000, "engine_sim_runs": %s, "output_identical": true}\n' \
        "$2" "$3" >> "$1"
    fi
    printf '  ]\n}\n' >> "$1"
  }
  mk "$tmp/committed.json" 200 1000

  mk "$tmp/same.json" 206 1000
  gate "$tmp/committed.json" "$tmp/same.json" \
    || { echo "selftest: identical-ish run must pass" >&2; exit 1; }

  mk "$tmp/slow.json" 260 1000  # +30% wall clock
  if gate "$tmp/committed.json" "$tmp/slow.json" 2>/dev/null; then
    echo "selftest: >15% slowdown must fail" >&2; exit 1
  fi

  mk "$tmp/runs.json" 200 1400  # pruning regression
  if gate "$tmp/committed.json" "$tmp/runs.json" 2>/dev/null; then
    echo "selftest: sim.runs increase must fail" >&2; exit 1
  fi

  # Files taken at different --jobs get no verdict from either mode: exit 2,
  # even when the numbers would pass.
  mk "$tmp/jobs.json" 200 1000 600000
  sed -i.bak 's/"jobs": 4/"jobs": 1/' "$tmp/jobs.json"
  mk "$tmp/jobs_committed.json" 200 1000 600000
  rc=0; gate "$tmp/jobs_committed.json" "$tmp/jobs.json" 2>/dev/null || rc=$?
  [ "$rc" -eq 2 ] \
    || { echo "selftest: mismatched jobs must exit 2 (got $rc)" >&2; exit 1; }
  rc=0; gate_batch "$tmp/jobs_committed.json" "$tmp/jobs.json" 2>/dev/null || rc=$?
  [ "$rc" -eq 2 ] \
    || { echo "selftest: mismatched jobs must exit 2 in --batch (got $rc)" >&2; exit 1; }

  mk "$tmp/empty.json" 200 1000
  sed -i.bak 's/"name": "fig3"/"name": "other"/' "$tmp/empty.json"
  if gate "$tmp/committed.json" "$tmp/empty.json" 2>/dev/null; then
    echo "selftest: missing bench must fail" >&2; exit 1
  fi

  # Batch-throughput gate: runs_per_sec floor, sub-noise skip, and graceful
  # handling of committed files predating the field.
  mk "$tmp/batch_committed.json" 200 1000 600000
  mk "$tmp/batch_ok.json" 210 1000 540000  # -10%, inside the 15% floor
  gate_batch "$tmp/batch_committed.json" "$tmp/batch_ok.json" \
    || { echo "selftest: -10% throughput must pass the batch gate" >&2; exit 1; }
  mk "$tmp/batch_slow.json" 300 1000 400000  # -33% throughput
  if gate_batch "$tmp/batch_committed.json" "$tmp/batch_slow.json" 2>/dev/null; then
    echo "selftest: >15% throughput drop must fail the batch gate" >&2; exit 1
  fi
  mk "$tmp/batch_missing.json" 210 1000
  if gate_batch "$tmp/batch_committed.json" "$tmp/batch_missing.json" 2>/dev/null; then
    echo "selftest: fresh file without runs_per_sec must fail the batch gate" >&2; exit 1
  fi
  mk "$tmp/batch_noise.json" 20 1000 600000  # committed run below --min-ms
  gate_batch "$tmp/batch_noise.json" "$tmp/batch_slow.json" \
    || { echo "selftest: sub-noise benches must be skipped by the batch gate" >&2; exit 1; }
  mk "$tmp/batch_old.json" 200 1000  # committed file predates the field
  gate_batch "$tmp/batch_old.json" "$tmp/batch_slow.json" \
    || { echo "selftest: pre-batch committed files must pass the batch gate" >&2; exit 1; }
  echo "selftest: batch gate ok" >&2

  # Redistribution gate: improvement floor and the zero-violation-regression
  # contract, on synthetic BENCH_redist.json fixtures.
  mk_redist() { # mk_redist <file> <improved> <regressions>
    printf '{\n  "budget_w": 700,\n  "jobs": 10,\n  "scenarios_improved": %s,\n  "violation_regressions": %s,\n  "scenarios": [\n' \
      "$2" "$3" > "$1"
    i=0
    while [ $i -lt 7 ]; do
      printf '    {"scenario": "s%s", "claw_backs": 0}%s\n' \
        "$i" "$([ $i -lt 6 ] && echo ',')" >> "$1"
      i=$((i + 1))
    done
    printf '  ]\n}\n' >> "$1"
  }
  mk_redist "$tmp/redist_good.json" 4 0
  gate_redist "$tmp/redist_good.json" \
    || { echo "selftest: 4-of-7 improved with 0 regressions must pass" >&2; exit 1; }
  mk_redist "$tmp/redist_few.json" 3 0
  if gate_redist "$tmp/redist_few.json" 2>/dev/null; then
    echo "selftest: below --min-improved must fail" >&2; exit 1
  fi
  mk_redist "$tmp/redist_viol.json" 7 1
  if gate_redist "$tmp/redist_viol.json" 2>/dev/null; then
    echo "selftest: violation-seconds regression must fail" >&2; exit 1
  fi
  echo "selftest: redist gate ok" >&2

  # Recovery gate: byte-identical recovery at every kill point and the
  # journal-overhead ceiling, on synthetic BENCH_recovery.json fixtures.
  mk_recovery() { # mk_recovery <file> <failures> <overhead_pct>
    printf '{\n  "budget_w": 700,\n  "jobs": 10,\n  "kill_points": 50,\n  "recovery_failures": %s,\n  "journal_off_ms": 5,\n  "journal_on_ms": 5,\n  "overhead_pct": %s,\n  "scenarios": [\n    {"scenario": "baseline", "failures": %s}\n  ]\n}\n' \
      "$2" "$3" "$2" > "$1"
  }
  mk_recovery "$tmp/recovery_good.json" 0 2
  gate_recovery "$tmp/recovery_good.json" \
    || { echo "selftest: 0 failures at 2%% overhead must pass" >&2; exit 1; }
  mk_recovery "$tmp/recovery_slow.json" 0 9
  if gate_recovery "$tmp/recovery_slow.json" 2>/dev/null; then
    echo "selftest: overhead above --max-overhead must fail" >&2; exit 1
  fi
  mk_recovery "$tmp/recovery_broken.json" 1 2
  if gate_recovery "$tmp/recovery_broken.json" 2>/dev/null; then
    echo "selftest: a non-identical recovery must fail" >&2; exit 1
  fi
  echo "selftest: recovery gate ok" >&2

  # Observability gate: purity (byte-identical reports), liveness (4/4
  # endpoints) and the telemetry+tracing overhead ceiling, on synthetic
  # BENCH_obs.json fixtures.
  mk_obs() { # mk_obs <file> <identical> <endpoints_ok> <overhead_pct>
    printf '{\n  "budget_w": 700,\n  "jobs": 100,\n  "identical_reports": %s,\n  "endpoints_ok": %s,\n  "alert_rules": 8,\n  "alerts_fired": 0,\n  "plane_off_ms": 3.0,\n  "plane_on_ms": 3.1,\n  "overhead_pct": %s\n}\n' \
      "$2" "$3" "$4" > "$1"
  }
  mk_obs "$tmp/obs_good.json" 1 4 2
  gate_obs "$tmp/obs_good.json" \
    || { echo "selftest: identical reports at 2%% overhead must pass" >&2; exit 1; }
  mk_obs "$tmp/obs_slow.json" 1 4 7
  if gate_obs "$tmp/obs_slow.json" 2>/dev/null; then
    echo "selftest: overhead above --max-obs-overhead must fail" >&2; exit 1
  fi
  mk_obs "$tmp/obs_dark.json" 1 3 2
  if gate_obs "$tmp/obs_dark.json" 2>/dev/null; then
    echo "selftest: a dead endpoint must fail" >&2; exit 1
  fi
  mk_obs "$tmp/obs_impure.json" 0 4 2
  if gate_obs "$tmp/obs_impure.json" 2>/dev/null; then
    echo "selftest: a non-identical instrumented run must fail" >&2; exit 1
  fi
  echo "selftest: obs gate ok" >&2

  # clip-lint exit-code contract (0 clean / 1 violations, including a
  # reasonless suppression leaving its finding open). Uses the built binary
  # when present; CI builds it before this selftest runs.
  lint_bin="${CLIP_LINT_BIN:-build/tools/clip-lint/clip-lint}"
  if [ -x "$lint_bin" ]; then
    printf '#pragma once\nint pure(int x);\n' > "$tmp/clean.hpp"
    if ! "$lint_bin" --quiet "$tmp/clean.hpp"; then
      echo "selftest: clip-lint must exit 0 on a clean file" >&2; exit 1
    fi
    printf '#include <cstdlib>\nint r() { return rand() %% 2; }\n' \
      > "$tmp/dirty.cpp"
    if "$lint_bin" --quiet "$tmp/dirty.cpp" 2>/dev/null; then
      echo "selftest: clip-lint must exit 1 on a violation" >&2; exit 1
    fi
    printf '#include <cstdlib>\nint r() { return rand() %% 2; }  // clip-lint: allow(D4)\n' \
      > "$tmp/noreason.cpp"
    if "$lint_bin" --quiet "$tmp/noreason.cpp" 2>/dev/null; then
      echo "selftest: reasonless suppression must keep exit 1" >&2; exit 1
    fi
    printf '#include <cstdlib>\nint r() { return rand() %% 2; }  // clip-lint: allow(D4) selftest fixture\n' \
      > "$tmp/reasoned.cpp"
    if ! "$lint_bin" --quiet --json "$tmp/lint.json" "$tmp/reasoned.cpp"; then
      echo "selftest: reasoned suppression must exit 0" >&2; exit 1
    fi
    grep -q '"suppressed": 1' "$tmp/lint.json" \
      || { echo "selftest: lint JSON must count suppressions" >&2; exit 1; }

    # Flow-sensitive families: J1 (unjournaled mutation), L1 (unlocked
    # write), E1 (discarded fallible result) on minimal directive-carrying
    # fixtures, and the project-level J2 pair (producer + registry).
    printf '// clip-lint: journaled(state_)\nstruct Q {\n  void hit() { state_ = 1; }\n  int state_;\n};\n' \
      > "$tmp/j1.cpp"
    if "$lint_bin" --quiet --json "$tmp/lint.json" "$tmp/j1.cpp" 2>/dev/null; then
      echo "selftest: an unjournaled mutation must exit 1" >&2; exit 1
    fi
    grep -q '"rule": "J1"' "$tmp/lint.json" \
      || { echo "selftest: J1 finding missing from JSON" >&2; exit 1; }
    printf '// clip-lint: guards(mu_: v_)\nstruct S {\n  void w() { v_ = 1; }\n  int v_;\n};\n' \
      > "$tmp/l1.cpp"
    if "$lint_bin" --quiet --json "$tmp/lint.json" "$tmp/l1.cpp" 2>/dev/null; then
      echo "selftest: an unlocked guarded write must exit 1" >&2; exit 1
    fi
    grep -q '"rule": "L1"' "$tmp/lint.json" \
      || { echo "selftest: L1 finding missing from JSON" >&2; exit 1; }
    printf '// clip-lint: fallible(load)\nvoid f() { load(1); }\n' \
      > "$tmp/e1.cpp"
    if "$lint_bin" --quiet --json "$tmp/lint.json" "$tmp/e1.cpp" 2>/dev/null; then
      echo "selftest: a discarded fallible result must exit 1" >&2; exit 1
    fi
    grep -q '"rule": "E1"' "$tmp/lint.json" \
      || { echo "selftest: E1 finding missing from JSON" >&2; exit 1; }
    printf 'void f() { jlog("alpha", "p"); jlog("rogue", "p"); }\n' \
      > "$tmp/j2_prod.cpp"
    printf '#include <string>\n#include <vector>\nconst std::vector<std::string>& known_record_kinds() {\n  static const std::vector<std::string> k = {"alpha"};\n  return k;\n}\n' \
      > "$tmp/j2_reg.cpp"
    if "$lint_bin" --quiet --json "$tmp/lint.json" "$tmp/j2_prod.cpp" "$tmp/j2_reg.cpp" 2>/dev/null; then
      echo "selftest: an unregistered journal kind must exit 1" >&2; exit 1
    fi
    grep -q '"rule": "J2"' "$tmp/lint.json" \
      || { echo "selftest: J2 finding missing from JSON" >&2; exit 1; }
    grep -q 'rogue' "$tmp/lint.json" \
      || { echo "selftest: J2 must name the rogue kind" >&2; exit 1; }
    if ! "$lint_bin" --quiet "$tmp/j2_prod.cpp"; then
      echo "selftest: J2 must stay silent without a registry in the scan" >&2; exit 1
    fi

    # SARIF output: schema header, driver name, and an inSource suppression.
    if ! "$lint_bin" --quiet --sarif "$tmp/lint.sarif" "$tmp/reasoned.cpp"; then
      echo "selftest: SARIF run on the reasoned fixture must exit 0" >&2; exit 1
    fi
    grep -q '"version": "2.1.0"' "$tmp/lint.sarif" \
      || { echo "selftest: SARIF must declare version 2.1.0" >&2; exit 1; }
    grep -q '"name": "clip-analyze"' "$tmp/lint.sarif" \
      || { echo "selftest: SARIF must name the clip-analyze driver" >&2; exit 1; }
    grep -q '"kind": "inSource"' "$tmp/lint.sarif" \
      || { echo "selftest: SARIF must carry in-source suppressions" >&2; exit 1; }

    echo "selftest: clip-lint exit codes ok" >&2
  else
    echo "selftest: clip-lint not built ($lint_bin), lint checks skipped" >&2
  fi

  echo "selftest: ok" >&2
  exit 0
fi

if [ -n "$redist_file" ]; then
  [ $# -eq 0 ] || { echo "usage: $0 --redist <BENCH_redist.json>" >&2; exit 2; }
  gate_redist "$redist_file"
  exit $?
fi

if [ -n "$recovery_file" ]; then
  [ $# -eq 0 ] || { echo "usage: $0 --recovery <BENCH_recovery.json>" >&2; exit 2; }
  gate_recovery "$recovery_file"
  exit $?
fi

if [ -n "$obs_file" ]; then
  [ $# -eq 0 ] || { echo "usage: $0 --obs <BENCH_obs.json>" >&2; exit 2; }
  gate_obs "$obs_file"
  exit $?
fi

[ $# -eq 2 ] || { echo "usage: $0 [--batch] [--max-slowdown PCT] <committed.json> <fresh.json>" >&2; exit 2; }
if [ "$batch" -eq 1 ]; then
  gate_batch "$1" "$2"
else
  gate "$1" "$2"
fi
