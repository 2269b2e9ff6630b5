"""White-box tests for the §5 clustering machinery."""

import importlib
import math
import random

import pytest

from repro.core.light_spanner import (
    _bucket_index,
    _case1_clusters,
    _case2_clusters,
)
from repro.graphs import dijkstra, erdos_renyi_graph, random_tree
from repro.mst import kruskal_mst
from repro.traversal import compute_euler_tour


@pytest.fixture
def tour():
    g = erdos_renyi_graph(40, 0.2, seed=21)
    mst = kruskal_mst(g)
    return mst, compute_euler_tour(mst, 0)


class TestBucketIndex:
    def test_boundaries(self):
        big_l, eps = 1000.0, 0.25
        # w = L lands in bucket 0; w just above L/(1+eps) too
        assert _bucket_index(1000.0, big_l, eps) == 0
        assert _bucket_index(801.0, big_l, eps) == 0
        # w = L/(1+eps) lands in bucket 1
        assert _bucket_index(800.0, big_l, eps) == 1

    @pytest.mark.parametrize("w", [999.9, 512.3, 100.0, 3.7, 1.0])
    def test_invariant_holds(self, w):
        big_l, eps = 1000.0, 0.25
        i = _bucket_index(w, big_l, eps)
        assert big_l / (1 + eps) ** (i + 1) < w <= big_l / (1 + eps) ** i

    def test_many_random_weights(self):
        rng = random.Random(0)
        big_l, eps = 5000.0, 0.1
        for _ in range(200):
            w = rng.uniform(1.0, big_l)
            i = _bucket_index(w, big_l, eps)
            assert big_l / (1 + eps) ** (i + 1) < w <= big_l / (1 + eps) ** i


class TestCase1Clusters:
    def test_weak_diameter_bound(self, tour):
        """§5 case 1: any two vertices of a cluster are within ε·w_i in
        the MST metric."""
        mst, t = tour
        eps_wi = t.length / 7.0
        cluster_of = _case1_clusters(t, eps_wi)
        by_cluster = {}
        for v, c in cluster_of.items():
            by_cluster.setdefault(c, []).append(v)
        for members in by_cluster.values():
            dist, _ = dijkstra(mst, members[0])
            for v in members:
                assert dist[v] <= eps_wi + 1e-9

    def test_cluster_count_bound(self, tour):
        """At most ⌈L/(ε·w_i)⌉ + 1 clusters (§5 case 1)."""
        _, t = tour
        for denom in (3.0, 10.0, 30.0):
            eps_wi = t.length / denom
            clusters = set(_case1_clusters(t, eps_wi).values())
            assert len(clusters) <= math.ceil(t.length / eps_wi) + 1

    def test_every_vertex_clustered(self, tour):
        _, t = tour
        cluster_of = _case1_clusters(t, t.length / 5.0)
        assert set(cluster_of) == set(t.tree.vertices())


class TestCase2Clusters:
    def test_weak_diameter_bound(self, tour):
        mst, t = tour
        eps_wi = t.length / 9.0
        cluster_of, _ = _case2_clusters(t, eps_wi, index_stride=7)
        by_cluster = {}
        for v, c in cluster_of.items():
            by_cluster.setdefault(c, []).append(v)
        for members in by_cluster.values():
            dist, _ = dijkstra(mst, members[0])
            for v in members:
                assert dist[v] <= eps_wi + 1e-9

    def test_interval_hop_length_bounded_by_stride(self, tour):
        """Condition 2 caps every communication interval at the index
        stride."""
        _, t = tour
        for stride in (3, 8, 20):
            _, max_interval = _case2_clusters(t, t.length / 4.0, stride)
            assert max_interval <= stride

    def test_position_zero_is_center(self, tour):
        _, t = tour
        cluster_of, _ = _case2_clusters(t, t.length / 4.0, 9)
        assert cluster_of[t.order[0]] == 0

    def test_centers_are_cluster_ids(self, tour):
        """Cluster ids are center positions; every member's first
        appearance is at or after its center."""
        _, t = tour
        cluster_of, _ = _case2_clusters(t, t.length / 6.0, 11)
        for v, c in cluster_of.items():
            assert any(j >= c for j in t.appearances[v])

    def test_fine_scale_every_position_is_center(self):
        """When ε·w_i is below the smallest edge weight, every position
        crosses a boundary and becomes its own center."""
        tree = random_tree(12, seed=3, min_weight=5.0, max_weight=9.0)
        t = compute_euler_tour(tree, 0)
        cluster_of, max_interval = _case2_clusters(t, 1.0, index_stride=10 ** 9)
        assert max_interval == 1


class TestCase2EdgeCollectionCharge:
    """The case-2 ``edge-collection`` charge is counted in one pass over
    the [EN17b] output; it must equal the per-cluster rescan it replaced."""

    @pytest.mark.parametrize(
        "n, p, seed, k", [(120, 0.1, 1, 2), (200, 0.15, 100, 2), (160, 0.08, 5, 3)]
    )
    def test_matches_brute_force_formula(self, monkeypatch, n, p, seed, k):
        from repro.congest.primitives import local_phase_rounds
        from repro.graphs import erdos_renyi_graph

        # the module, not the same-named function re-exported by repro.core
        ls = importlib.import_module("repro.core.light_spanner")

        original = ls.elkin_neiman_spanner
        runs = []

        def recording_en(adjacency, k, rng):
            run = original(adjacency, k, rng)
            runs.append((adjacency, run))
            return run

        monkeypatch.setattr(ls, "elkin_neiman_spanner", recording_en)
        res = ls.light_spanner(erdos_renyi_graph(n, p, seed=seed), k, 0.25, random.Random(seed))
        charges = res.ledger.by_phase()
        weight_buckets = [b for b in res.buckets if b.index >= 0]
        assert len(runs) == len(weight_buckets)
        checked = 0
        for bucket, (adjacency, run) in zip(weight_buckets, runs):
            if bucket.case != 2:
                continue
            brute = max(
                [sum(1 for e in run.edges if c in e) for c in adjacency], default=0
            )
            max_interval = charges[f"bucket{bucket.index}:center-declaration"]
            assert charges[f"bucket{bucket.index}:edge-collection"] == (
                local_phase_rounds(max_interval) + brute
            )
            checked += 1
        assert checked > 0, "case 2 must fire"
