"""Run one benchmark workload, check its outputs, and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 0 --seconds 10 --trace 0

Workloads: ``build``, ``serve-cold`` and ``serve-hot`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines
above it show the same numbers for a reader, followed by the
end-to-end numbers that are reported but not gated (:data:`REPORTED`)
and notes such as sample counts.

Each run also writes a JSON report (and, traced, a JSONL span file)
under ``.perfbench_out/``.  A run whose workload guard fails prints
``INVALID``; when nothing failed and no output was wrong it then exits
with code 3 and no result line, since the run is not comparable.  A
run with failures or wrong outputs always prints its result line, so
a stall or a wrong answer is reported as such.  A checkout without
``src/repro`` exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

from common import OUT_DIR, ROOT, FingerprintStore, Result, digest

SRC = os.path.join(ROOT, "src")
WORKLOADS = ("build", "serve-cold", "serve-hot")

#: units of end-to-end numbers every run prints and reports but that
#: ``BENCHMARK.json`` does not gate: on a shared 2-CPU virtual machine
#: their run-to-run spread exceeds any bound a gated metric may have
#: (see ``perfbench/README.md``).
REPORTED = {
    "certify_s": "s", "qps": "req/s", "p50_ms": "ms", "p99_ms": "ms",
    "failed_ratio": "ratio",
}


def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    """sha256 over every source file of the package (path and bytes)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _environment() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _print_block(title: str, values: Dict[str, float], specs: List[Dict[str, str]]) -> None:
    print(title)
    for spec in specs:
        name = spec["name"]
        print(f"  {name:<36} {values.get(name, 0.0):>16.6g} {spec['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no package at {os.path.join(SRC, 'repro')}; run from "
              f"the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    # a SIGTERM unwinds through every finally, so daemons are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import layers
    import wl_build
    import wl_serve

    tracer = layers.install() if args.trace else None
    environment = _environment()
    store = FingerprintStore(
        os.path.join(OUT_DIR, "fingerprints.json"),
        digest([environment[k] for k in ("src_sha256", "python", "numpy", "scipy")]),
    )
    if args.workload == "build":
        result: Result = wl_build.run(args.seed, args.seconds, tracer is not None, store)
    else:
        result = wl_serve.run(
            args.workload, args.seed, args.seconds, tracer is not None, store
        )
    store.save()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        with open(os.path.join(OUT_DIR, f"trace-{stem}.jsonl"), "w", encoding="utf-8") as fh:
            tracer.write_jsonl(fh)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "end_to_end": result.e2e,
        "per_layer": result.layers,
        "notes": result.notes,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "invalid": result.invalid,
    }
    with open(os.path.join(OUT_DIR, f"report-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    _print_block("end-to-end", result.e2e, spec["end_to_end"])
    _print_block("end-to-end, reported only", result.e2e,
                 [{"name": n, "unit": u} for n, u in REPORTED.items() if n in result.e2e])
    if args.trace:
        _print_block("per-layer", result.layers, spec["per_layer"])
    print("notes " + json.dumps(result.notes, sort_keys=True))
    for error in result.errors:
        print(f"WRONG {error}")
    for reason in result.invalid:
        print(f"INVALID {reason}")
    if result.invalid and not (result.errors or result.failed):
        return 3

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.layers if args.trace else result.e2e
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]],
                    "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
