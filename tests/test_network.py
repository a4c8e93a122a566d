"""Network container invariants."""

from __future__ import annotations

import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snmodel.metrics import compute_metrics
from snmodel.network import Network, component_labels

from oracles import edge_pairs, edge_set, from_pairs, validate


def star(n: int) -> Network:
    return from_pairs(n, [(0, i) for i in range(1, n)])


class TestConstruction:
    def test_edges_are_canonicalized(self):
        net = Network(["A", "B"], [1], [0])
        assert list(edge_pairs(net)) == [(0, 1)]
        assert edge_set(net) == {(0, 1)}
        # Out of order only among one node's earlier neighbours.
        assert list(edge_pairs(from_pairs(3, [(1, 2), (0, 2)]))) == [(0, 2), (1, 2)]

    def test_structureless_edges_come_out_canonical(self):
        net = Network([None] * 3, [2, 0], [1, 1])
        assert net.n_nodes == 3
        assert net.n_edges == 2
        assert edge_set(net) == {(1, 2), (0, 1)}

    def test_degrees(self):
        net = star(5)
        assert net.degrees().tolist() == [4, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        ("u", "v", "message"),
        [
            ([1], [1], "self-loop on node 1"),
            ([0, 1], [1, 1], "self-loop on node 1"),
            ([0], [5], r"outside the node ids \[0, 3\)"),
            ([0], [3], r"outside the node ids \[0, 3\)"),
            ([-1], [2], r"outside the node ids \[0, 3\)"),
            ([0, 1], [2], "edge endpoint arrays must have the same length"),
            # Kept, a repeat would add its bit twice in the sweep's level 1.
            ([0, 0, 1], [1, 1, 2], r"edge \(0, 1\) given twice"),
            ([0, 1, 1], [1, 0, 2], r"edge \(0, 1\) given twice"),
        ],
    )
    def test_rejects_self_loops_and_unknown_endpoints(self, u, v, message):
        with pytest.raises(ValueError, match=message):
            Network([None] * 3, u, v)

    def test_validate_catches_parallel_edges(self):
        # The constructor rejects them, so they are put in past it.
        net = Network(["A", "B"], np.array([0]), np.array([1]))
        net.edge_u, net.edge_v = np.array([0, 0]), np.array([1, 1])
        with pytest.raises(AssertionError):
            validate(net)

    def test_validate_catches_duplicate_structures(self):
        net = Network(["A", "A"], np.array([0]), np.array([1]))
        with pytest.raises(AssertionError):
            validate(net)


class TestPickle:
    def test_pickle_holds_structures_and_edges_only(self):
        net = Network(["AT", None, "TT", "CA", "AA"], [0, 1, 2, 0, 3], [1, 2, 3, 2, 4])
        before = pickle.dumps(net)
        compute_metrics(net)
        assert net._degrees is not None and net._csr is not None
        after = pickle.dumps(net)
        back = pickle.loads(after)
        assert back.structures == net.structures
        assert np.array_equal(back.edge_u, net.edge_u)
        assert np.array_equal(back.edge_v, net.edge_v)
        assert back._degrees is None and back._csr is None
        assert len(after) <= len(before)


class TestSlicing:
    def test_induced_prefix(self):
        net = from_pairs(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        prefix = net.induced_prefix(4)
        assert prefix.n_nodes == 4
        assert edge_set(prefix) == {(0, 1), (1, 2), (0, 3)}
        assert net.induced_prefix(0).n_nodes == 0
        with pytest.raises(ValueError):
            net.induced_prefix(6)

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_are_stored_in_v_u_order(self, seed):
        # Whatever order the edges come in, each node's earlier neighbours
        # follow in node order, so a prefix's edges lead the arrays.
        rng = np.random.default_rng(seed)
        pairs = [(u, v) for v in range(30) for u in range(v) if rng.random() < 0.2]
        rng.shuffle(pairs)
        net = from_pairs(30, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
        assert list(edge_pairs(net)) == sorted(edge_set(net), key=lambda pair: pair[::-1])
        for n in range(net.n_nodes + 1):
            assert np.searchsorted(net.edge_v, n) == net.induced_prefix(n).n_edges

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_edges_sort_like_lexsort(self, seed):
        # The one int64 sort key orders edges as np.lexsort((u, v)) does. The
        # draw keeps each pair's first copy: an edge given twice is an error.
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 2999, 20000)
        v = u + rng.integers(1, 3000 - u)
        first = np.sort(np.unique(v * 3000 + u, return_index=True)[1])
        u, v = u[first], v[first]
        order = np.lexsort((u, v))
        flip = rng.random(u.size) < 0.5
        shuffled = rng.permutation(u.size)
        a, b = np.where(flip, v, u)[shuffled], np.where(flip, u, v)[shuffled]
        net = Network([None] * 3000, a, b)
        assert np.array_equal(net.edge_u, u[order])
        assert np.array_equal(net.edge_v, v[order])

    def test_subgraph_compacts_ids(self):
        net = Network(list("ABCDE"), [0, 1, 2, 3], [1, 2, 3, 4])
        sub = net.subgraph(np.array([False, True, True, True, False]))
        assert sub.n_nodes == 3
        assert sub.structures == ["B", "C", "D"]
        assert edge_set(sub) == {(0, 1), (1, 2)}

    def test_subgraph_mask_length_checked(self):
        net = star(4)
        with pytest.raises(ValueError):
            net.subgraph(np.array([True, False]))


class TestComponentLabels:
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            )
        )
    )
    def test_each_id_gets_its_components_smallest_id(self, case):
        # Pairs in either direction, repeated or self-paired, as the index's
        # pair codes and a network's edges both reach the routine.
        n, pairs = case
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(pairs)
        expected = np.empty(n, dtype=np.int64)
        for members in nx.connected_components(graph):
            expected[list(members)] = min(members)
        a = np.array([p for p, _ in pairs], dtype=np.int64)
        b = np.array([q for _, q in pairs], dtype=np.int64)
        assert np.array_equal(component_labels(n, a, b), expected)
