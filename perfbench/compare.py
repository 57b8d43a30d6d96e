#!/usr/bin/env python3
"""Compare two sets of perfbench results (see perfbench/README.md).

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files written by perfbench/run.py
(.bench_build/results/<workload>-seed<N>-trace<T>.json), typically one per
seed, from the parent commit and from the change. Results are paired by
workload, trace mode and seed. A pair whose provenance differs in anything
but the tree itself (git sha, source digest) - compiler, build type, nproc,
threads, run length - is not comparable, and the workload gets no verdict.
Otherwise, for each end-to-end metric, the median over seeds of the change
is judged against the parent's median and the metric's bound from
BENCHMARK.json. Simulated outputs that differ (the outputs digest) and
the share of failed checks are reported too: the first means the change
altered decisions, and a rise in the second fails the comparison.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Provenance fields that may differ between the two sides: the tree itself.
TREE_FIELDS = {"git_sha", "source_digest"}


def load(directory):
    runs = {}
    for p in sorted(Path(directory).glob("*.json")):
        r = json.loads(p.read_text())
        prov = r["provenance"]
        runs[(prov["workload"], prov["trace"], prov["seed"])] = r
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = load(sys.argv[1]), load(sys.argv[2])
    keys = sorted(set(base) & set(head))
    if not keys:
        sys.exit("compare: no result pairs (same workload, trace, seed)")
    verdict_ok = True
    for workload in sorted({k[0] for k in keys}):
        for trace in sorted({k[1] for k in keys if k[0] == workload}):
            pairs = [(base[k], head[k]) for k in keys
                     if k[0] == workload and k[1] == trace]
            label = "%s (trace %d, %d seeds)" % (workload, trace, len(pairs))
            diffs = []
            for b, h in pairs:
                for field in sorted(set(b["provenance"]) |
                                    set(h["provenance"])):
                    if field in TREE_FIELDS:
                        continue
                    bv = b["provenance"].get(field)
                    hv = h["provenance"].get(field)
                    if bv != hv:
                        diffs.append("%s: %r vs %r" % (field, bv, hv))
            if diffs:
                print("%s: not comparable (%s)" %
                      (label, "; ".join(sorted(set(diffs)))))
                continue
            print(label)
            changed = sum(b["outputs_digest"] != h["outputs_digest"]
                          for b, h in pairs)
            if changed:
                print("  simulated outputs changed on %d of %d seeds" %
                      (changed, len(pairs)))
            # A ratio, not a count: runs repeat work until their time is up,
            # so the number of checks differs from run to run.
            ratio = [sum(r["failed"] for r in side) /
                     max(1, sum(r["attempted"] for r in side))
                     for side in zip(*pairs)]
            if ratio[1] > ratio[0]:
                verdict_ok = False
            print("  failed checks: %.6g -> %.6g of those attempted" %
                  tuple(ratio))
            metrics = spec["per_layer" if trace else "end_to_end"]
            for m in metrics:
                bv = [b["metrics"][m["name"]]["value"] for b, _ in pairs
                      if m["name"] in b["metrics"]]
                hv = [h["metrics"][m["name"]]["value"] for _, h in pairs
                      if m["name"] in h["metrics"]]
                if not bv or not hv:
                    continue
                bm, hm = statistics.median(bv), statistics.median(hv)
                change = (hm - bm) / abs(bm) if bm else 0.0
                line = "  %-36s %12.6g -> %-12.6g %+7.1f%% %s" % (
                    m["name"], bm, hm, 100 * change, m["unit"])
                if "bound" in m:
                    worse = change if m["better"] == "lower" else -change
                    if spread(bv) > m["bound"]:
                        line += "  unresolved (parent spread %.3f > bound)" \
                            % spread(bv)
                    elif worse > m["bound"]:
                        line += "  WORSE than bound %.2f" % m["bound"]
                        verdict_ok = False
                    else:
                        line += "  within bound %.2f" % m["bound"]
                print(line)
    sys.exit(0 if verdict_ok else 1)


if __name__ == "__main__":
    main()
