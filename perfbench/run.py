#!/usr/bin/env python3
"""Build and run the coordinator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep|queue-deep|durable-recover \
        --seed N --seconds S --trace 0|1

Run from the root of a CLIP source checkout. The first run configures and
builds perfbench/ (a CMake project compiling src/ and the figure binaries'
shared setup code) into .bench_build/; later runs only re-check the build.
The measuring program's report is echoed; the last line printed is one JSON
object with exactly the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list (a metric the workload does not measure reads 0). The full
result, with provenance, is also written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep", "queue-deep", "durable-recover")
# Everything the measured program is compiled from, for the source digest.
SOURCE_DIRS = ("src", "bench", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "bench").is_dir():
        fail("no CLIP source tree (src/, bench/) next to perfbench/")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE
                           not in cache.read_text(errors="replace")):
        shutil.rmtree(BUILD)  # configured for a checkout elsewhere
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=700).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if rc != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (%s); see %s" % (" ".join(cmd[:2]), log))
    return BUILD / "perfbench"


def source_digest():
    h = hashlib.sha256()
    for d in SOURCE_DIRS:
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    exe = build()
    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", str(results / (stem + ".spans.csv"))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("measuring program exceeded 170 s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("measuring program failed with status %d" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("measuring program printed no result line")
    for line in lines[:-1]:
        print(line)

    metrics = {}
    not_exercised = []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if args.trace == "0":
                fail("workload %s did not measure %s" %
                     (args.workload, m["name"]))
            not_exercised.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s measured in %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not_exercised:
        print("  not measured on %s (reported as 0): %s" %
              (args.workload, ", ".join(not_exercised)))

    provenance = dict(raw["provenance"])
    provenance.update({"git_sha": git_sha(), "source_digest": source_digest(),
                       "workload": args.workload, "trace": int(args.trace),
                       "run_seconds": args.seconds})
    full = {"provenance": provenance, "attempted": raw["attempted"],
            "failed": raw["failed"], "outputs_digest": raw["digest"],
            "metrics": raw["metrics"]}
    (results / (stem + ".json")).write_text(json.dumps(full, indent=1) + "\n")
    print("  provenance: " + json.dumps(provenance, sort_keys=True))

    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
