"""Per-layer spans for the traced run, recorded from outside the program.

The benchmark never edits ``src/``.  A traced run instead installs thin
wrappers around the public functions the measured code calls, at the
module attribute each caller reads (``repro.core.slt.kruskal_mst`` is
the Kruskal call the §4 SLT makes, for example), and opens a
:mod:`repro.obs.trace` span around each call.  Spans stay in memory
and are written as JSONL when the run ends.

:func:`layer_totals` folds the spans under one root span into
``name -> (total wall, self wall, calls)``.  Self time is a span's wall
time minus the wall time of its direct children; the program's own
spans (``certify.*``, ``congest.*``) count as children too.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.obs import trace as obs_trace

#: (module, attribute, span name): the calls a traced run wraps.  Each
#: module is the caller, so a wrapper times exactly the calls that
#: caller makes and no others.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.harness.runner", "light_spanner", "core.light_spanner"),
    ("repro.harness.runner", "shallow_light_tree", "core.slt"),
    ("repro.harness.runner", "build_net", "core.net"),
    ("repro.harness.runner", "doubling_spanner", "core.doubling_spanner"),
    ("repro.harness.runner", "baswana_sen_spanner", "spanners.baswana_sen"),
    ("repro.core.light_spanner", "baswana_sen_spanner", "spanners.baswana_sen"),
    ("repro.core.light_spanner", "elkin_neiman_spanner", "spanners.elkin_neiman"),
    ("repro.core.light_spanner", "kruskal_mst", "mst.kruskal_mst"),
    ("repro.core.slt", "kruskal_mst", "mst.kruskal_mst"),
    ("repro.core.doubling_spanner", "kruskal_mst", "mst.kruskal_mst"),
    ("repro.core.slt", "approx_spt", "spt.approx_spt"),
    ("repro.core.light_spanner", "compute_euler_tour", "traversal.euler_tour"),
    ("repro.core.slt", "compute_euler_tour", "traversal.euler_tour"),
    ("repro.harness.runner", "broadcast_messages", "congest.broadcast"),
    # the runner imports these two lazily from the package at call time
    ("repro.kernels", "sssp_matrix", "kernels.sssp_matrix"),
    ("repro.kernels", "residual", "kernels.residual"),
    ("repro.analysis.report", "certify_edge_stretch", "analysis.certify_stretch"),
    ("repro.harness.runner", "net_report", "analysis.net_report"),
)

#: span names whose wall time, self time and call count become metrics.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in WRAPS))

#: span-name prefixes whose call counts are reported too.
COUNTED = ("spanners.", "mst.", "spt.", "traversal.")


def _wrapped(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        with obs_trace.span(name):
            return fn(*args, **kwargs)

    return call


def install() -> obs_trace.Tracer:
    """Enable tracing in this process and wrap every call in :data:`WRAPS`."""
    tracer = obs_trace.enable()
    for module_name, attr, name in WRAPS:
        module = importlib.import_module(module_name)
        setattr(module, attr, _wrapped(getattr(module, attr), name))
    return tracer


LayerTotals = Dict[str, Tuple[float, float, int]]


def layer_totals(spans: Sequence[obs_trace.SpanRecord], root_id: int) -> LayerTotals:
    """``name -> (wall, self, calls)`` over the spans under ``root_id``.

    A span nested in a span of the same name (a recursive call) is not
    counted again.
    """
    by_id = {s.span_id: s for s in spans}
    child_wall: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_wall[s.parent_id] = child_wall.get(s.parent_id, 0.0) + s.wall_s
    totals: Dict[str, List[float]] = {}
    for s in spans:
        if s.name not in SPAN_NAMES:
            continue
        ancestor, inside, repeated = s.parent_id, False, False
        while ancestor is not None:
            parent = by_id[ancestor]
            if parent.name == s.name:
                repeated = True
            if ancestor == root_id:
                inside = True
                break
            ancestor = parent.parent_id
        if not inside or repeated:
            continue
        acc = totals.setdefault(s.name, [0.0, 0.0, 0])
        acc[0] += s.wall_s
        acc[1] += s.wall_s - child_wall.get(s.span_id, 0.0)
        acc[2] += 1
    return {name: (acc[0], acc[1], int(acc[2])) for name, acc in totals.items()}


def span_metrics(per_root: Iterable[LayerTotals]) -> Dict[str, float]:
    """Median over repetitions of each span's wall/self time and calls.

    Every span reports ``<name>_s``; ``core.*`` spans add
    ``<name>.self_s`` and the building blocks core calls
    (:data:`COUNTED`) add ``<name>.calls``.  A span that never ran
    reports 0.
    """
    rows = list(per_root) or [{}]
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        walls = [r.get(name, (0.0, 0.0, 0))[0] for r in rows]
        out[f"{name}_s"] = statistics.median(walls)
        if name.startswith("core."):
            selfs = [r.get(name, (0.0, 0.0, 0))[1] for r in rows]
            out[f"{name}.self_s"] = statistics.median(selfs)
        elif name.startswith(COUNTED):
            calls = [r.get(name, (0.0, 0.0, 0))[2] for r in rows]
            out[f"{name}.calls"] = statistics.median(calls)
    return out


def certification_metrics(certifications: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """``analysis.certify.*`` counts summed over stretch certifications.

    ``pruned_ratio`` is the share of graph edges already in the
    spanner, which the engine never searches for.
    """
    totals = {"edges_checked": 0, "fallbacks": 0, "edges_in_spanner": 0, "edges_total": 0}
    for cert in certifications:
        for key in totals:
            totals[key] += cert[key]
    edges = totals["edges_total"]
    return {
        "analysis.certify.edges_checked": totals["edges_checked"],
        "analysis.certify.fallbacks": totals["fallbacks"],
        "analysis.certify.pruned_ratio": totals["edges_in_spanner"] / edges if edges else 0.0,
    }
