"""The bulk numpy generators against the pure-Python loops, byte for byte.

``erdos_renyi_graph`` and ``ring_chords_graph`` run a numpy path
(:mod:`repro.kernels.genbulk`) when numpy is importable and their
original loops otherwise.  Both must build the same graph: the same
vertex order, the same neighbour order in every adjacency map, the
same float weights, and (for ER) the same RNG state once the edge
phase is done.  The loop is forced by patching ``numpy_or_none``.
Without numpy there is only the loop, so the comparisons skip.
"""

import hashlib
import random
from array import array

import pytest

from repro.graphs import WeightedGraph, erdos_renyi_graph, ring_chords_graph
from repro.graphs.generators import _add_er_edges
from repro.kernels import genbulk
from repro.kernels.dispatch import has_numpy, numpy_or_none

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="numpy not installed")


def _digest(g: WeightedGraph) -> str:
    """sha256 over the vertex order and every adjacency row in order:
    the neighbours, then the weights' exact float64 bytes."""
    h = hashlib.sha256()
    for v in g.vertices():
        row = list(g.neighbor_items(v))
        h.update(repr((v, [u for u, _ in row])).encode())
        h.update(array("d", [w for _, w in row]).tobytes())
    return h.hexdigest()


def _er_edge_phase(n, p, seed):
    """Digest of the ER edge phase and the RNG state it leaves behind."""
    rng = random.Random(seed)
    g = WeightedGraph(range(n))
    _add_er_edges(g, n, p, 1.0, 100.0, rng)
    return _digest(g), g.m, rng.getstate()


# ----------------------------------------------------------------- ER

ER_SIZES = [0, 1, 2, 3, 50, 2000]
ER_DENSITIES = [0.0, 0.004, 0.5, 1.0]


@needs_numpy
@pytest.mark.parametrize("p", ER_DENSITIES)
@pytest.mark.parametrize("n", ER_SIZES)
def test_er_edge_phase_matches_loop(n, p, monkeypatch):
    bulk = _er_edge_phase(n, p, seed=n + 7)
    monkeypatch.setattr(genbulk, "numpy_or_none", lambda: None)
    assert _er_edge_phase(n, p, seed=n + 7) == bulk


@needs_numpy
@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_er_weight_slot_across_chunk_boundary(chunk, p, monkeypatch):
    # with chunk=1 every weight slot opens a chunk of its own; with
    # p=1 and an odd chunk, every other chunk starts on a weight slot
    monkeypatch.setattr(genbulk, "ER_CHUNK_DRAWS", chunk)
    bulk = _er_edge_phase(40, p, seed=chunk)
    monkeypatch.setattr(genbulk, "numpy_or_none", lambda: None)
    assert _er_edge_phase(40, p, seed=chunk) == bulk


@needs_numpy
@pytest.mark.parametrize("seed", [0, 3])
def test_er_graph_with_backbone_matches_loop(seed, monkeypatch):
    """The backbone shuffle continues from the same state on both paths."""
    bulk = _digest(erdos_renyi_graph(300, 0.02, min_weight=2, max_weight=9, seed=seed))
    monkeypatch.setattr(genbulk, "numpy_or_none", lambda: None)
    assert _digest(erdos_renyi_graph(300, 0.02, min_weight=2, max_weight=9, seed=seed)) == bulk


@needs_numpy
def test_er_adjacency_keys_are_the_graphs_vertex_objects():
    g = erdos_renyi_graph(1000, 0.01, seed=2, ensure_connected=False)
    own = {v: v for v in g.vertices()}
    assert all(u is own[u] for v in g.vertices() for u in g.neighbors(v))


@pytest.mark.parametrize("backend", ["bulk", "loop"])
@pytest.mark.parametrize("n,p", [(0, 0.5), (2, 1.0), (30, 0.2), (60, 0.9)])
def test_er_stream_contract(backend, n, p, monkeypatch):
    """The edge phase draws exactly n(n-1)/2 + |E| doubles."""
    if backend == "bulk" and not has_numpy():
        pytest.skip("numpy not installed")
    if backend == "loop":
        monkeypatch.setattr(genbulk, "numpy_or_none", lambda: None)
    _, m, state = _er_edge_phase(n, p, seed=11)
    replay = random.Random(11)
    for _ in range(n * (n - 1) // 2 + m):
        replay.random()
    assert replay.getstate() == state


# ----------------------------------------------------------- bulk draw

@needs_numpy
@pytest.mark.parametrize("m", [
    0, 1, 2, 7,
    genbulk.ER_CHUNK_DRAWS - 1, genbulk.ER_CHUNK_DRAWS, genbulk.ER_CHUNK_DRAWS + 1,
])
def test_random_doubles_equal_random_calls(m):
    bulk_rng, loop_rng = random.Random(m), random.Random(m)
    bulk = genbulk.random_doubles(numpy_or_none(), bulk_rng, m).tolist()
    assert bulk == [loop_rng.random() for _ in range(m)]
    assert bulk_rng.getstate() == loop_rng.getstate()


# -------------------------------------------------------- ring-chords

@needs_numpy
@pytest.mark.parametrize("chunk", [genbulk.RC_CHUNK_VERTICES, 7])
@pytest.mark.parametrize("n", [5, 400, 5000])
def test_ring_chords_matches_loop(n, chunk, monkeypatch):
    monkeypatch.setattr(genbulk, "RC_CHUNK_VERTICES", chunk)
    bulk = _digest(ring_chords_graph(n, chords=3, seed=n))
    monkeypatch.setattr(genbulk, "numpy_or_none", lambda: None)
    assert _digest(ring_chords_graph(n, chords=3, seed=n)) == bulk


def test_bulk_paths_yield_none_without_numpy(monkeypatch):
    monkeypatch.setattr(genbulk, "numpy_or_none", lambda: None)
    assert genbulk.er_edge_draws(random.Random(0), 5, 0.5) is None
    assert genbulk.ring_chord_edges(5, (1, 4), 0) is None
