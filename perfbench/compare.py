#!/usr/bin/env python3
"""Compare two sets of benchmark runs under BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE [CHANGE]

BASE and CHANGE are directories of records written by run.py (--results), or
record files. For every (workload, metric) pair the table gives each side's
median, first and third quartile (statistics.quantiles, n=4), run count and
spread (quartile distance over the median). End-to-end metrics come from the
untraced records, per-layer metrics from the traced ones.

With CHANGE, each end-to-end pair gets a verdict:
  worse         CHANGE's median is worse than BASE's by more than the bound
                (and, where a spread exceeds the bound, every CHANGE run is
                worse than every BASE run);
  better        CHANGE's median is better by more than BASE's quartile
                distance and CHANGE wins at least 9 in 10 run pairs (where a
                spread exceeds the bound: every CHANGE run beats every BASE
                run);
  unresolved    a side's spread exceeds the bound and neither of the above;
  within bound  otherwise, and whenever both sides hold the same values: a
                set compared with itself reads "within bound" everywhere.
Per-layer metrics have no bound and get no verdict. With BASE alone the table
shows BASE's statistics. Exit status 1 when any verdict is "worse".
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}  # (workload, metric) -> list of values
    for f in files:
        rec = json.loads(f.read_text())
        source = rec["traced"] if rec.get("traced") else rec["untraced"]
        workload = source["workload"]
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault((workload, name), []).append(m["value"])
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base, change, better, bound):
    if sorted(base) == sorted(change):
        return "within bound"  # the same runs: there is no difference to resolve
    mb, q1b, q3b, sb = stats(base)
    mc, _, _, sc = stats(change)
    sign = 1.0 if better == "higher" else -1.0
    beats = lambda c, b: sign * (c - b) > 0
    worse_by_bound = sign * (mb - mc) > bound * abs(mb)
    if max(sb, sc) > bound:
        if all(beats(c, b) for c in change for b in base):
            return "better"
        if worse_by_bound and all(beats(b, c) for c in change for b in base):
            return "worse"
        return "unresolved"
    if worse_by_bound:
        return "worse"
    wins = sum(beats(c, b) for b in base for c in change)
    if sign * (mc - mb) > (q3b - q1b) and wins >= 0.9 * len(base) * len(change):
        return "better"
    return "within bound"


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(Path(sys.argv[1]))
    change = load(Path(sys.argv[2])) if len(sys.argv) == 3 else None
    any_worse = False
    header = f"{'workload':12s} {'metric':30s} {'side':6s} {'median':>12s} " \
             f"{'q1':>12s} {'q3':>12s} {'runs':>4s} {'spread':>7s}"
    print(header + ("  verdict" if change else ""))
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, m in metrics.items():
            key = (workload, name)
            if key not in base and (not change or key not in change):
                continue
            rows = [("base", base.get(key))]
            if change:
                rows.append(("change", change.get(key)))
            for i, (side, values) in enumerate(rows):
                if not values:
                    print(f"{workload:12s} {name:30s} {side:6s} {'(no runs)':>12s}")
                    continue
                med, q1, q3, spread = stats(values)
                line = (f"{workload:12s} {name:30s} {side:6s} {med:12.6g} "
                        f"{q1:12.6g} {q3:12.6g} {len(values):4d} {spread:7.3f}")
                if change and i == 1 and "bound" in m and base.get(key):
                    v = verdict(base[key], values, m["better"], m["bound"])
                    any_worse = any_worse or v == "worse"
                    line += f"  {v} (bound {m['bound']})"
                print(line)
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
