"""Tracing overhead of one workload: an untraced run against a traced one.

Usage, from the root of a checkout::

    python3 perfbench/overhead.py --workload build --seed 0 --seconds 10

Runs ``perfbench/run.py`` twice with the same seed, ``--trace 0`` then
``--trace 1``, and prints each end-to-end metric of both reports with
the traced/untraced ratio.  The end-to-end numbers of the benchmark
come from untraced runs; this ratio is what tracing costs on top.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import OUT_DIR, ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    reports = []
    for trace in (0, 1):
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        stem = f"{args.workload}-seed{args.seed}-trace{trace}"
        with open(os.path.join(OUT_DIR, f"report-{stem}.json"), encoding="utf-8") as fh:
            reports.append(json.load(fh)["end_to_end"])
    plain, traced = reports
    print(f"{'metric':<14} {'untraced':>14} {'traced':>14} {'ratio':>8}")
    for name, value in plain.items():
        ratio = traced[name] / value if value else float("nan")
        print(f"{name:<14} {value:>14.6g} {traced[name]:>14.6g} {ratio:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
