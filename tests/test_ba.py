"""Preferential-attachment baseline."""

from __future__ import annotations

import numpy as np
import pytest

from snmodel.ba import BAParams, grow_ba

from oracles import edge_pairs, edge_set, validate


class TestParams:
    def test_edges_bounded_by_clique(self):
        with pytest.raises(ValueError):
            BAParams(target_nodes=10, initial_clique=4, edges_per_node=5)

    def test_target_at_least_clique(self):
        with pytest.raises(ValueError):
            BAParams(target_nodes=3, initial_clique=6)

    def test_clique_minimum(self):
        with pytest.raises(ValueError):
            BAParams(target_nodes=10, initial_clique=1, edges_per_node=1)

    def test_seed_at_least_zero(self):
        BAParams(target_nodes=10, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            BAParams(target_nodes=10, seed=-1)


class TestGrowth:
    def test_exact_edge_count(self):
        params = BAParams(target_nodes=100, initial_clique=6, edges_per_node=6)
        net = grow_ba(params)
        assert net.n_nodes == 100
        assert net.n_edges == 15 + 6 * 94

    def test_clique_start(self):
        net = grow_ba(BAParams(target_nodes=30, initial_clique=5, edges_per_node=3))
        clique_edges = {(u, v) for u, v in edge_pairs(net) if u < 5 and v < 5}
        assert clique_edges == {(i, j) for i in range(5) for j in range(i + 1, 5)}

    def test_new_nodes_attach_to_distinct_earlier_nodes(self):
        params = BAParams(target_nodes=50, initial_clique=4, edges_per_node=4, seed=2)
        net = grow_ba(params)
        by_node: dict[int, list[int]] = {}
        for u, v in edge_pairs(net):
            by_node.setdefault(v, []).append(u)
        for new in range(4, 50):
            targets = by_node[new]
            assert len(targets) == 4
            assert len(set(targets)) == 4
            assert all(t < new for t in targets)

    def test_simple_graph(self):
        net = grow_ba(BAParams(target_nodes=200, seed=5))
        validate(net)

    def test_deterministic(self):
        params = BAParams(target_nodes=120, seed=9)
        assert edge_set(grow_ba(params)) == edge_set(grow_ba(params))
        other = grow_ba(BAParams(target_nodes=120, seed=10))
        assert edge_set(grow_ba(params)) != edge_set(other)

    def test_average_degree_nearly_constant(self):
        # 2m/N with exact m: from 500 to 3000 nodes the drift stays tiny.
        def avg_degree(n: int) -> float:
            return 2.0 * (15 + 6 * (n - 6)) / n

        values = [avg_degree(n) for n in range(500, 3001, 500)]
        spread = (max(values) - min(values)) / np.mean(values)
        assert spread < 0.02

    def test_early_nodes_accumulate_degree(self):
        net = grow_ba(BAParams(target_nodes=400, seed=1))
        deg = net.degrees()
        assert deg[:6].mean() > 3 * deg[300:].mean()
