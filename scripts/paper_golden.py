#!/usr/bin/env python3
"""Golden digest of the paper's deterministic outputs.

Runs the Table I harness at its smoke size (AABFT_BENCH_MAX_N=512: n = 256
and 512 measured, the rest projected) and the Tables II-IV harnesses at their
default sizes, then hashes the numeric cells of every table row and compares
them with a checked-in golden file, one digest per row. Table I's
`host GEMM s` column is wall-clock time and is left out; everything else
(modelled GFLOPS, measured rounding errors and bounds) is deterministic.

On a mismatch the script names each differing row and prints the cells it
reads now, so the output that moved is plain. A change that moves a paper
output on purpose regenerates the golden file in the same commit:

    python3 scripts/paper_golden.py --bench-dir build/bench \\
        --golden tests/golden/paper_golden.txt --update

Exit status: 0 when every row matches, 1 on a mismatch or a failing harness.
"""
import argparse
import hashlib
import os
import re
import subprocess
import sys

# (table id, harness binary, extra environment, trailing cells to drop)
HARNESSES = [
    ("table1", "bench_table1_performance", {"AABFT_BENCH_MAX_N": "512"}, 1),
    ("table2", "bench_table2_bounds", {}, 0),
    ("table3", "bench_table3_bounds", {}, 0),
    ("table4", "bench_table4_bounds", {}, 0),
]

# A table row starts with the matrix size (projected sizes carry a '*').
ROW = re.compile(r"^\s*\d+\*?\s")


def run_harness(bench_dir, binary, extra_env):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AABFT_BENCH_")}
    env.update(extra_env)
    proc = subprocess.run([os.path.join(bench_dir, binary)], env=env,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def table_rows(table, output, drop):
    """{row key: cells} for every numeric row of one harness's output."""
    rows = {}
    for line in output.splitlines():
        if not ROW.match(line):
            continue
        cells = line.split()
        if drop:
            cells = cells[:-drop]
        rows[f"{table}/{cells[0]}"] = cells[1:]
    return rows


def digest(cells):
    return hashlib.sha256(" ".join(cells).encode()).hexdigest()[:16]


def read_golden(path):
    golden = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                key, value = line.split()
                golden[key] = value
    return golden


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the bench_table* binaries")
    parser.add_argument("--golden", required=True, help="golden digest file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden file from this run")
    args = parser.parse_args()

    rows = {}
    failed = False
    for table, binary, extra_env, drop in HARNESSES:
        code, output = run_harness(args.bench_dir, binary, extra_env)
        if code != 0:
            print(f"{binary} exited with status {code}:\n{output}")
            failed = True
        found = table_rows(table, output, drop)
        if not found:
            print(f"{binary} printed no table rows")
            failed = True
        rows.update(found)

    if args.update:
        if failed:
            print("not updating the golden file from a failing run")
            return 1
        with open(args.golden, "w", encoding="utf-8") as f:
            f.write("# Per-row digests of the paper outputs; regenerate with\n"
                    "# scripts/paper_golden.py --update (see its docstring).\n")
            for key, cells in rows.items():
                f.write(f"{key} {digest(cells)}\n")
        print(f"wrote {len(rows)} row digests to {args.golden}")
        return 0

    golden = read_golden(args.golden)
    mismatches = 0
    for key, want in golden.items():
        if key not in rows:
            print(f"MISSING {key}: the harness no longer prints this row")
            mismatches += 1
        elif digest(rows[key]) != want:
            print(f"DIFFERS {key}: digest {digest(rows[key])}, golden {want}; "
                  f"row now reads: {' '.join(rows[key])}")
            mismatches += 1
    for key in rows.keys() - golden.keys():
        print(f"EXTRA {key}: not in the golden file: {' '.join(rows[key])}")
        mismatches += 1
    if mismatches:
        print(f"paper_golden: {mismatches} of {len(golden)} rows differ")
        return 1
    if failed:
        return 1
    print(f"paper_golden: all {len(golden)} rows match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
