"""Golden outputs of the §4–§7 constructions on small seeded inputs.

Each construction's output is reduced to a fingerprint — edge (or
point) count, the sha256 of its sorted edge list, the ledger total and
the per-bucket / per-scale round charges — and compared with values
recorded before the bookkeeping in these paths was rewritten
(one-pass case-2 edge-collection charge, cached rounded-weight column,
radius-bounded greedy nets, row-local induced subgraphs).  Any change
to an output, a ledger charge or an RNG draw shows up here.

The sequential references every theorem check is measured against —
exact and radius-bounded Dijkstra, and the oracle's landmark
potentials — are pinned the same way: the sha256 of the full
``(vertex, dist, parent)`` output, recorded before those searches were
routed through the shared kernel settle loop.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Iterable

import pytest

from repro.core import doubling_spanner, greedy_net, light_spanner, shallow_light_tree
from repro.graphs import WeightedGraph, erdos_renyi_graph, random_geometric_graph
from repro.graphs.shortest_paths import bounded_dijkstra, dijkstra
from repro.mst import kruskal_mst
from repro.mst.fragments import decompose_fragments
from repro.oracle.landmarks import landmarks_with_potentials


def _sha(items: Iterable[Any]) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


def _graph_fp(graph: WeightedGraph) -> Dict[str, Any]:
    return {"edges": graph.m, "sha256": _sha(graph.edges())}


def _light_spanner_fp(n: int, p: float, seed: int, k: int) -> Dict[str, Any]:
    g = erdos_renyi_graph(n, p, seed=seed)
    res = light_spanner(g, k, 0.25, rng=random.Random(seed))
    assert any(b.case == 2 for b in res.buckets), "case 2 must fire"
    return {
        **_graph_fp(res.spanner),
        "total": res.ledger.total,
        "ledger_sha256": _sha(res.ledger.entries()),
        "bucket_rounds": [(b.index, b.case, b.rounds) for b in res.buckets],
    }


def _doubling_fp(n: int, seed: int, eps: float) -> Dict[str, Any]:
    g = random_geometric_graph(n, seed=seed)
    res = doubling_spanner(g, eps, rng=random.Random(seed), net_method="greedy")
    return {
        **_graph_fp(res.spanner),
        "total": res.ledger.total,
        "ledger_sha256": _sha(res.ledger.entries()),
        "scale_rounds": [s.rounds for s in res.scales],
        "scale_stats_sha256": _sha(
            (s.index, s.net_size, s.paths_added, s.max_overlap) for s in res.scales
        ),
    }


def _slt_fp(n: int, p: float, seed: int, alpha: float) -> Dict[str, Any]:
    g = erdos_renyi_graph(n, p, seed=seed)
    res = shallow_light_tree(g, 0, alpha)
    return {
        **_graph_fp(res.tree),
        "intermediate_sha256": _sha(res.intermediate.edges()),
        "total": res.ledger.total,
        "ledger_sha256": _sha(res.ledger.entries()),
        "break_points": len(res.break_points),
    }


def _greedy_net_fp(graph: WeightedGraph, radius: float) -> Dict[str, Any]:
    points = greedy_net(graph, radius)
    return {"points": len(points), "sha256": _sha(repr(v) for v in points)}


def _fragments_fp(n: int, p: float, seed: int) -> Dict[str, Any]:
    mst = kruskal_mst(erdos_renyi_graph(n, p, seed=seed))
    dec = decompose_fragments(mst, 0)
    return {
        "fragments": dec.num_fragments,
        "max_hop_diameter": dec.max_hop_diameter(),
        "hop_diameters": [f.hop_diameter(dec.tree) for f in dec.fragments],
        "sha256": _sha(
            (f.index, f.root, tuple(sorted(f.members)), dec.fragment_parent[f.index])
            for f in dec.fragments
        ),
        "external_sha256": _sha(dec.external_edges),
    }


def _sssp_graph() -> WeightedGraph:
    return erdos_renyi_graph(500, 0.02, seed=11)


def _sssp_fp(dist: Dict[Any, float], parent: Dict[Any, Any]) -> Dict[str, Any]:
    return {
        "reached": len(dist),
        "sha256": _sha((v, d, parent[v]) for v, d in dist.items()),
    }


def _dijkstra_fp(sources: Any) -> Dict[str, Any]:
    return _sssp_fp(*dijkstra(_sssp_graph(), sources))


def _bounded_fp(radii: Iterable[float]) -> Dict[str, Any]:
    g = _sssp_graph()
    exact = sorted(dijkstra(g, 0)[0].values())
    # one radius lands exactly on a vertex's distance: the `<= radius` edge
    return {
        repr(r): _sssp_fp(*bounded_dijkstra(g, 0, r))
        for r in (*radii, exact[125])
    }


def _landmarks_fp(strategy: str) -> Dict[str, Any]:
    chosen, potentials = landmarks_with_potentials(
        _sssp_graph().freeze(), 8, strategy, seed=3
    )
    return {
        "landmarks": chosen,
        "potentials_sha256": hashlib.sha256(repr(potentials).encode()).hexdigest(),
    }


CASES = {
    "light-spanner-er200-k2": lambda: _light_spanner_fp(200, 0.15, 100, 2),
    "light-spanner-er300-k3": lambda: _light_spanner_fp(300, 0.05, 3, 3),
    "doubling-geometric30": lambda: _doubling_fp(30, 21, 0.08),
    "slt-er150-alpha5": lambda: _slt_fp(150, 0.08, 7, 5.0),
    "slt-er150-alpha1.5": lambda: _slt_fp(150, 0.08, 7, 1.5),
    "greedy-net-er200": lambda: _greedy_net_fp(erdos_renyi_graph(200, 0.05, seed=10), 25.0),
    "greedy-net-geometric60": lambda: _greedy_net_fp(random_geometric_graph(60, seed=4), 10.0),
    "fragments-er400": lambda: _fragments_fp(400, 0.03, 5),
    "dijkstra-er500-one-source": lambda: _dijkstra_fp(0),
    "dijkstra-er500-three-sources": lambda: _dijkstra_fp([0, 17, 333]),
    "bounded-dijkstra-er500": lambda: _bounded_fp([35.0, 45.0]),
    "landmarks-er500-far": lambda: _landmarks_fp("far"),
    "landmarks-er500-degree": lambda: _landmarks_fp("degree"),
}

GOLDEN: Dict[str, Dict[str, Any]] = {
    "bounded-dijkstra-er500": {
        "35.0": {
            "reached": 20,
            "sha256": "3cfe73202a79716220e4842abb818215db4b21c6b42ffc441f89cf6ebbdb6371",
        },
        "45.0": {
            "reached": 59,
            "sha256": "9326c3d61d71d65f43e439e65288899b9a93c7494129909e78dc2c1afded04ff",
        },
        "54.28464028336385": {
            "reached": 126,
            "sha256": "b2dbeb6c5edb67539bb6664526ca6c037c448914b8356b0cda59ced689013c70",
        },
    },
    "dijkstra-er500-one-source": {
        "reached": 500,
        "sha256": "5712ebb513bcfcff6548452cc1a6f3f55de5f8c84e783a27b82252f0a2480263",
    },
    "dijkstra-er500-three-sources": {
        "reached": 500,
        "sha256": "997df341a2ad040a0bb1c7a162ccfcc689d2903ed5bed70d59794af60dbe435c",
    },
    "doubling-geometric30": {
        "edges": 232,
        "sha256": "d4f7506fd8ccba6625269ab1d81b9960cbcd56d3cf23233541524e8a44b7a608",
        "total": 217774,
        "ledger_sha256": "d3e7293ea4dd30599083d185d59e2b46daaecd0d210f4a53cd1ab17db132ad60",
        "scale_rounds": [
            965, 965, 965, 965, 965, 1090, 1090, 1090, 1090, 1090, 1090, 1215, 1215, 1340, 1340,
            1340, 1340, 1340, 1340, 1340, 1340, 1340, 1340, 1340, 1340, 1340, 1340, 1465, 1465,
            1465, 1590, 1590, 1715, 1715, 1840, 2090, 2340, 2715, 2840, 2965, 3090, 3340, 3840,
            4090, 4465, 4590, 4590, 4590, 4590, 4590, 4590, 4590, 4590, 4590, 4590, 4590, 4590,
            4590, 4590, 4590, 4590, 4465, 4465, 4465, 4465, 4465, 4465, 4215, 3840, 3715, 3715,
            3715, 3590, 3590, 3590, 3590, 3465, 3340,
        ],
        "scale_stats_sha256": "76b0d43c76014cbd0f07181e2e266da4c0a57d9173b6d8ef53b341679864b0f1",
    },
    "fragments-er400": {
        "fragments": 17,
        "max_hop_diameter": 15,
        "hop_diameters": [2, 14, 10, 8, 10, 10, 14, 9, 14, 15, 12, 12, 11, 9, 8, 13, 9],
        "sha256": "bec031ce8bbf809ce328444a6e18c7d53dc18d25801d2f597014b07eaf2af9c5",
        "external_sha256": "6160c5a4946efd081f009f35ef2b03df7efff57e482b99354857f75156a30fd4",
    },
    "greedy-net-er200": {
        "points": 72,
        "sha256": "a357f3e83ddc0105b7c6526f35f2eb0ea42950032a69b16e9133cc0c6a3a3d64",
    },
    "greedy-net-geometric60": {
        "points": 30,
        "sha256": "d9d6378bc384a1153260a80c09766d7fded75fafcec7588234fcee5aa2b4e0c9",
    },
    "landmarks-er500-degree": {
        "landmarks": [450, 114, 365, 58, 253, 118, 282, 96],
        "potentials_sha256": "fff1e4bad526feb229a07b6ace940a8a7af1a70542cc84ee0ffa73540eba97ca",
    },
    "landmarks-er500-far": {
        "landmarks": [121, 142, 346, 223, 173, 470, 249, 379],
        "potentials_sha256": "e3ef40c113992bd10d56b836ccdc0189cc94ca8beec8271824f67ad63c64acf0",
    },
    "light-spanner-er200-k2": {
        "edges": 3060,
        "sha256": "9a610a4c04d4158e2085c07c078f032d7e81409bc4d5e9b6e0ba012da4dc5608",
        "total": 530,
        "ledger_sha256": "0ea7de0b86cf900e4ef7dfb03580c5f1be9b90ef1956d23578bc1b99482ad121",
        "bucket_rounds": [
            (-1, 0, 6),
            (13, 2, 28),
            (14, 2, 34),
            (15, 2, 24),
            (16, 2, 21),
            (17, 2, 21),
            (18, 2, 11),
            (19, 2, 10),
            (20, 2, 10),
            (21, 2, 9),
            (22, 2, 8),
            (23, 2, 8),
        ],
    },
    "light-spanner-er300-k3": {
        "edges": 2465,
        "sha256": "657040d9c98783d58a78982c1883a33116789914cc28e0f3d2411c93e7d02933",
        "total": 581,
        "ledger_sha256": "365cd3e2a9ae8b0473c60088b1db15245cdc4a49dd75e03865378e403e42fa0b",
        "bucket_rounds": [
            (-1, 0, 9),
            (17, 2, 21),
            (18, 2, 19),
            (19, 2, 19),
            (20, 2, 14),
            (21, 2, 10),
            (22, 2, 10),
            (23, 2, 9),
            (24, 2, 10),
            (25, 2, 8),
        ],
    },
    "slt-er150-alpha1.5": {
        "edges": 149,
        "sha256": "219bfb1317dfab7600e93185f0bc9480bd08ad5206570372c137d54b7b662a7f",
        "intermediate_sha256": "219bfb1317dfab7600e93185f0bc9480bd08ad5206570372c137d54b7b662a7f",
        "total": 104892,
        "ledger_sha256": "6bb7b8bf2b37ce325f69ed1f4cebaded4d3b69ae344114f275661fb44365a9cc",
        "break_points": 294,
    },
    "slt-er150-alpha5": {
        "edges": 149,
        "sha256": "08a173e798bd3247d6fcb1ab89b9194d5e3e6c98c16359b24b90b0df367a1655",
        "intermediate_sha256": "0fc587f0e53d69ee8a92a31d85bd57e7da946a1e228f0f0f752414ea846874c0",
        "total": 2492,
        "ledger_sha256": "a2a4da8bdb18133d00e6e2df7a8f7420afa3feb97d27cdf679401e80a53ec12c",
        "break_points": 82,
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == GOLDEN[name]

