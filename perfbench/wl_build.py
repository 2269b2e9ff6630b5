"""The ``build`` workload: generate, construct and certify seven inputs.

Each input is a registered harness profile at its stress tier with
size overrides, run through the profile's own algorithm and params
(:data:`repro.harness.runner.ALGORITHMS`), so the workload exercises
``core``, ``spanners``, ``mst``, ``spt``, ``traversal``, ``congest``,
``kernels`` and ``analysis`` with no serving at all.  Graph and
algorithm seeds are the profile seed plus the workload seed.

The workload runs in whole passes over the seven inputs until
``seconds`` have elapsed (at least one pass).  A pass generates each
input :data:`SETUP_REPEATS` times, then constructs and certifies it, so
set-up is timed throughout the run, between the constructions, rather
than in one stretch at its start.  One set-up is the generation of all
seven inputs: ``setup_s`` is the median over a pass's set-ups (and
over passes); ``build_s`` and ``certify_s`` are medians over passes.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from common import FingerprintStore, Result, digest, edge_fingerprint, host_ticks, steal_share
from layers import certification_metrics, layer_totals, span_metrics
from repro.graphs import WeightedGraph
from repro.harness.profiles import Profile, get_profile
from repro.harness.runner import ALGORITHMS, STRUCTURE_EXTRACTORS
from repro.obs import trace as obs_trace

TIER = "stress"

#: (profile, generator overrides): the seven inputs, in run order.
INPUTS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("spanner-er", {"n": 2000, "p": 0.01}),
    ("slt-er", {"n": 4000, "p": 0.004}),
    ("net-er", {"n": 2000, "p": 0.01}),
    ("doubling-geometric", {"n": 40}),
    ("baswana-sen-er", {"n": 4000, "p": 0.005}),
    ("congest-broadcast", {}),
    ("kernel-sssp-ring", {}),
)

SETUP_REPEATS = 3


def _generate(profile: Profile, overrides: Dict[str, Any], seed: int) -> Tuple[WeightedGraph, float]:
    """One input and the seconds its generation took."""
    t0 = time.perf_counter()
    with obs_trace.span("graphs.generate", profile=profile.name):
        graph = profile.build_graph(TIER, seed=profile.seed + seed, **overrides)
    return graph, time.perf_counter() - t0


def fingerprint(profile: Profile, artifact: Any, rounds: Optional[int]) -> Dict[str, Any]:
    """Item count, rounds and sha256 of one construction's output."""
    algorithm = profile.algorithm
    if algorithm in STRUCTURE_EXTRACTORS:
        return edge_fingerprint(STRUCTURE_EXTRACTORS[algorithm](artifact), rounds)
    if algorithm == "net":
        items = sorted(repr(p) for p in artifact.points)
    elif algorithm == "congest-broadcast":
        tree, _payloads, received, _ = artifact
        items = sorted(
            (repr(v), repr(tree.parent[v]), tuple(sorted(received[v])))
            for v in tree.parent
        )
    elif algorithm == "kernel-sssp":
        _csr, sources, matrix = artifact
        items = [(s, tuple(row)) for s, row in zip(sources, matrix)]
    else:
        raise ValueError(f"no fingerprint for algorithm {algorithm!r}")
    return {"items": len(items), "rounds": rounds, "sha256": digest(items)}


def _scipy_floor(artifact: Any) -> Tuple[float, int]:
    """Time scipy's Dijkstra on the kernel input; count differing entries."""
    csr, sources, matrix = artifact
    graph = csr_matrix(
        (np.asarray(csr.weights, dtype=np.float64),
         np.asarray(csr.indices), np.asarray(csr.indptr)),
        shape=(csr.n, csr.n),
    )
    t0 = time.perf_counter()
    reference = scipy_dijkstra(graph, directed=True, indices=sources)
    seconds = time.perf_counter() - t0
    ours = np.asarray(matrix, dtype=np.float64)
    return seconds, int(np.count_nonzero(ours != reference))


def _construct(profile: Profile, graph: WeightedGraph, seed: int) -> Tuple[Any, Any, float, float]:
    """Build and certify one input: (built, report, build s, certify s)."""
    build, certify = ALGORITHMS[profile.algorithm]
    params = profile.algo_params(TIER)
    t0 = time.perf_counter()
    built = build(graph, params, random.Random(profile.seed + seed))
    t1 = time.perf_counter()
    report = certify(graph, built[0], params)
    return built, report, t1 - t0, time.perf_counter() - t1


def run(seed: int, seconds: float, traced: bool, store: FingerprintStore) -> Result:
    result = Result()
    profiles = [get_profile(name) for name, _ in INPUTS]

    passes: List[Dict[str, float]] = []
    pass_roots = []
    first: Dict[str, Dict[str, Any]] = {}
    per_input: Dict[str, List[float]] = {}
    layers: Dict[str, float] = {}
    certifications = []
    host0 = host_ticks()
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        setups = [0.0] * SETUP_REPEATS
        build_total, certify_total = 0.0, 0.0
        with obs_trace.span("bench.pass", index=len(passes)) as root:
            for profile, (_, overrides) in zip(profiles, INPUTS):
                for rep in range(SETUP_REPEATS):
                    graph = None  # let the previous repetition's graph go first
                    graph, took = _generate(profile, overrides, seed)
                    setups[rep] += took
                built, report, build_s, certify_s = _construct(profile, graph, seed)
                build_total += build_s
                certify_total += certify_s
                per_input.setdefault(profile.name, [build_s, certify_s])
                result.attempted += 1

                bad = []
                if not report.ok:
                    bad.append("certificate not ok")
                fp = fingerprint(profile, built[0], built[1])
                key = f"build/seed={seed}/{profile.name}"
                if first.setdefault(profile.name, fp) != fp or not store.check(key, fp):
                    bad.append("fingerprint changed")
                if profile.algorithm == "kernel-sssp":
                    floor_s, differing = _scipy_floor(built[0])
                    layers["kernels.scipy_floor_s"] = floor_s
                    if differing:
                        bad.append(f"{differing} distances differ from scipy")
                if len(built) > 2:  # CONGEST builds return their NetStats
                    layers["congest.rounds"] = built[2].rounds
                    layers["congest.messages"] = built[2].messages
                if report.certification is not None and not passes:
                    certifications.append(report.certification)
                if bad:
                    result.failed += 1
                    result.errors.append(f"{profile.name}: {', '.join(bad)}")
        passes.append({
            "setup_s": statistics.median(setups),
            "build_s": build_total,
            "certify_s": certify_total,
        })
        pass_roots.append(getattr(root, "span_id", 0))

    result.e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "build_s": statistics.median(p["build_s"] for p in passes),
        "certify_s": statistics.median(p["certify_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": result.failed / result.attempted,
    }
    result.notes = {
        "passes": len(passes),
        "setups_s": setups,
        "host_steal_share": steal_share(host0, host_ticks()),
        "first_pass_build_certify_s": per_input,
    }

    if traced:
        tracer = obs_trace.current()
        assert tracer is not None
        layers.update(span_metrics(layer_totals(tracer.spans, r) for r in pass_roots))
        layers.update(certification_metrics(certifications))
        layers["graphs.generate_s"] = result.e2e["setup_s"]
        layers["analysis.certify_s"] = result.e2e["certify_s"]
        layers["kernels.floor_ratio"] = (
            layers["kernels.sssp_matrix_s"] / layers["kernels.scipy_floor_s"]
        )
        result.layers = layers
    return result
