"""Tests for the exact and approximate shortest-path trees."""

import importlib
import pickle

import pytest

from repro.graphs import (
    WeightedGraph,
    bounded_dijkstra,
    dijkstra,
    erdos_renyi_graph,
    path_graph,
)
from repro.spt import (
    approx_spt,
    bkkl_round_cost,
    bounded_approx_spt,
    exact_spt_distributed,
)
from repro.spt.approx_spt import _round_up_weight
from repro.analysis import verify_spanning_tree
from repro.congest import RoundLedger

# the module, not the same-named function that ``repro.spt`` re-exports
APPROX_SPT = importlib.import_module("repro.spt.approx_spt")


class TestDistributedBellmanFord:
    def test_matches_dijkstra(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        exact, _ = dijkstra(small_er, 0)
        for v, d in exact.items():
            assert spt.dist[v] == pytest.approx(d)

    def test_rounds_bounded_by_hop_radius(self):
        g = path_graph(20)
        spt = exact_spt_distributed(g, 0)
        assert spt.rounds <= 20 + 3

    def test_tree_is_valid_spanning_tree(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        verify_spanning_tree(small_er, spt.as_graph(small_er))

    def test_path_to_root_follows_parents(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        for v in small_er.vertices():
            path = spt.path_to_root(v)
            assert path[0] == v and path[-1] == 0
            total = sum(
                small_er.weight(a, b) for a, b in zip(path, path[1:])
            )
            assert total == pytest.approx(spt.dist[v])

    def test_disconnected_raises(self):
        g = WeightedGraph(range(3))
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            exact_spt_distributed(g, 0)


class TestApproxSPT:
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0])
    def test_equation_1_holds(self, medium_er, eps):
        """d_G <= dist <= (1+ε)·d_G — Equation (1) of the paper."""
        spt = approx_spt(medium_er, 0, eps)
        exact, _ = dijkstra(medium_er, 0)
        for v, d in exact.items():
            assert spt.dist[v] >= d - 1e-9
            assert spt.dist[v] <= (1 + eps) * d + 1e-9

    def test_approximation_is_genuine(self):
        """On some graph the approximate SPT must differ from the exact one
        (the rounding is real, not cosmetic)."""
        differs = False
        for seed in range(8):
            g = erdos_renyi_graph(40, 0.2, seed=seed)
            spt = approx_spt(g, 0, 0.5)
            exact, _ = dijkstra(g, 0)
            if any(abs(spt.dist[v] - exact[v]) > 1e-9 for v in g.vertices()):
                differs = True
                break
        assert differs

    def test_tree_is_subgraph_spanning_tree(self, medium_er):
        spt = approx_spt(medium_er, 0, 0.3)
        verify_spanning_tree(medium_er, spt.as_graph(medium_er))

    def test_dist_is_true_tree_path_weight(self, small_er):
        spt = approx_spt(small_er, 0, 0.4)
        tree = spt.as_graph(small_er)
        tree_dist, _ = dijkstra(tree, 0)
        for v in small_er.vertices():
            assert spt.dist[v] == pytest.approx(tree_dist[v])

    def test_eps_zero_is_exact(self, small_er):
        spt = approx_spt(small_er, 0, 0.0)
        exact, _ = dijkstra(small_er, 0)
        for v, d in exact.items():
            assert spt.dist[v] == pytest.approx(d)

    def test_rounds_charged_to_ledger(self, small_er):
        led = RoundLedger()
        spt = approx_spt(small_er, 0, 0.25, ledger=led, phase="my-spt")
        assert led.by_phase()["my-spt"] == spt.rounds
        assert spt.rounds == bkkl_round_cost(small_er.n, 6, 0.25)

    def test_round_cost_grows_with_inverse_eps(self):
        assert bkkl_round_cost(100, 5, 0.1) > bkkl_round_cost(100, 5, 0.5)

    def test_stretch_to_root_helper(self, small_er):
        spt = approx_spt(small_er, 0, 0.3)
        exact, _ = dijkstra(small_er, 0)
        assert spt.stretch_to_root(exact) <= 1.3 + 1e-9


class TestBoundedApproxSPT:
    def test_multi_source_within_radius(self, medium_er):
        sources = [0, 1, 2]
        dist, parent, origin = bounded_approx_spt(medium_er, sources, 60.0, 0.25)
        exact, _ = dijkstra(medium_er, sources)
        for v, d in dist.items():
            assert d <= 60.0 + 1e-9
            assert d >= exact[v] - 1e-9

    def test_origin_points_to_a_source(self, medium_er):
        sources = [0, 5]
        dist, parent, origin = bounded_approx_spt(medium_er, sources, 100.0, 0.2)
        for v in dist:
            assert origin[v] in sources
            # walking parents ends at the origin
            node = v
            while parent[node] is not None:
                node = parent[node]
            assert node == origin[v]

    def test_everything_reached_with_huge_radius(self, small_er):
        dist, _, _ = bounded_approx_spt(small_er, [0], 1e9, 0.2)
        assert set(dist) == set(small_er.vertices())

    def test_radius_zero_reaches_only_sources(self, small_er):
        dist, _, _ = bounded_approx_spt(small_er, [0, 3], 0.0, 0.2)
        assert set(dist) == {0, 3}

    def test_path_weights_are_true_weights(self, small_er):
        dist, parent, origin = bounded_approx_spt(small_er, [0], 80.0, 0.3)
        for v in dist:
            node, total = v, 0.0
            while parent[node] is not None:
                total += small_er.weight(node, parent[node])
                node = parent[node]
            assert total == pytest.approx(dist[v])


class TestRoundedColumn:
    """The bounded exploration relaxes with a rounded-weight column that
    is computed once per ``(CSR, eps)`` and cached on the CSR."""

    def test_entries_bit_equal_to_round_up(self, medium_er):
        csr = medium_er.freeze()
        for eps in (0.05, 0.08, 0.25):
            column = csr.rounded_weights(eps, _round_up_weight)
            assert len(column) == len(csr.weights)
            for w, rw in zip(csr.weights, column):
                assert rw.hex() == _round_up_weight(w, eps).hex()

    def test_cached_per_eps(self, small_er):
        csr = small_er.freeze()
        a = csr.rounded_weights(0.1, _round_up_weight)
        b = csr.rounded_weights(0.3, _round_up_weight)
        assert a is not b
        assert list(a) != list(b)
        assert csr.rounded_weights(0.1, _round_up_weight) is a
        assert csr.rounded_weights(0.3, _round_up_weight) is b

    def test_exploration_builds_the_column_once(self, small_er, monkeypatch):
        calls = []

        def counting(w, eps):
            calls.append(eps)
            return _round_up_weight(w, eps)

        monkeypatch.setattr(APPROX_SPT, "_round_up_weight", counting)
        csr = small_er.freeze()
        first = bounded_approx_spt(csr, [0], 50.0, 0.2)
        assert len(calls) == len(csr.weights)
        assert bounded_approx_spt(csr, [0], 50.0, 0.2) == first
        bounded_approx_spt(csr, [5], 30.0, 0.2)
        assert len(calls) == len(csr.weights)

    @pytest.mark.parametrize("eps", [0.0, -0.5])
    def test_non_positive_eps_uses_raw_weights(self, small_er, monkeypatch, eps):
        def refuse(w, eps):
            raise AssertionError("no rounding for eps <= 0")

        monkeypatch.setattr(APPROX_SPT, "_round_up_weight", refuse)
        csr = small_er.freeze()
        dist, _, _ = bounded_approx_spt(csr, [0], 50.0, eps)
        exact, _ = bounded_dijkstra(csr, 0, 50.0)
        assert dist == exact

    def test_refrozen_graph_gets_a_fresh_column(self, small_er):
        g = small_er.copy()
        old_csr = g.freeze()
        old = old_csr.rounded_weights(0.2, _round_up_weight)
        g.add_edge(0, 29, 0.37)
        new_csr = g.freeze()
        assert new_csr is not old_csr
        new = new_csr.rounded_weights(0.2, _round_up_weight)
        assert new is not old
        assert len(new) == len(new_csr.weights) == len(old) + 2
        assert list(new) == [_round_up_weight(w, 0.2) for w in new_csr.weights]
        # the exploration over the new CSR sees the new edge
        dist, parent, _ = bounded_approx_spt(new_csr, [0], 0.5, 0.2)
        assert dist[29] == 0.37 and parent[29] == 0

    def test_pickled_csr_answers_the_same(self, medium_er):
        csr = medium_er.freeze()
        before = bounded_approx_spt(csr, [0, 7], 40.0, 0.25)
        clone = pickle.loads(pickle.dumps(csr))
        assert bounded_approx_spt(clone, [0, 7], 40.0, 0.25) == before
        assert bounded_approx_spt(clone, [3], 40.0, 0.1) == bounded_approx_spt(
            csr, [3], 40.0, 0.1
        )
