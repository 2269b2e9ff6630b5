"""Shared pieces of the benchmark: results, fingerprints, statistics."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where runs leave reports, traces, fingerprints and scratch files.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


@dataclass
class Result:
    """What one workload run measured and checked.

    ``e2e`` and ``layers`` map metric names to values.  ``errors`` are
    wrong outputs (they make the run incorrect); ``invalid`` are broken
    workload guards (the run is not comparable).  ``notes`` are printed
    and reported but are not metrics of ``BENCHMARK.json``.
    """

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)


def host_ticks() -> Tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, from ``/proc/stat``.

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs; a run with a large steal share measured the neighbours
    as much as the program.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU ticks stolen between two :func:`host_ticks` readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in [0, 1] of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def digest(items: Iterable[Any]) -> str:
    """sha256 of the ``repr`` of each item, one per line."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def edge_fingerprint(graph: Any, rounds: Optional[int]) -> Dict[str, Any]:
    """Edge count, rounds and sha256 of the sorted edge list of ``graph``."""
    edges = sorted(
        (min(repr(u), repr(v)), max(repr(u), repr(v)), w)
        for u, v, w in graph.edges()
    )
    return {"items": len(edges), "rounds": rounds, "sha256": digest(edges)}


class FingerprintStore:
    """Fingerprints of earlier runs of the same code in this checkout.

    Keys are scoped by ``version`` (a digest of the package source and
    the library versions), so the store means "the same code gives the
    same output", whatever other code ran in the checkout before.  A
    fingerprint seen before under the same scoped key must repeat
    exactly; a new key is recorded.
    """

    def __init__(self, path: str, version: str) -> None:
        self.path = path
        self.version = version
        try:
            with open(path, encoding="utf-8") as fh:
                self.known: Dict[str, Any] = json.load(fh)
        except FileNotFoundError:
            self.known = {}

    def check(self, key: str, fingerprint: Dict[str, Any]) -> bool:
        """True when ``fingerprint`` matches the one stored under ``key``
        for this code version."""
        seen = self.known.setdefault(f"{self.version}/{key}", fingerprint)
        return seen == fingerprint

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
