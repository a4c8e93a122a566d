"""Topology metrics against hand values, closed forms, and external oracles."""

from __future__ import annotations

import itertools
import math
import random
import signal
import sys
import threading
import time
import tracemalloc
import types

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmodel import instances_dir, metrics
from snmodel.experiments import load_instance_file, run_single
from snmodel.metrics import (
    average_clustering,
    average_degree,
    average_path_length,
    compute_metrics,
    degree_distribution,
    degree_histogram,
    fit_power_law_slope,
    heterogeneity_index,
    largest_component,
    local_clustering,
    motif_census_3,
    path_length_histogram,
    triangle_count,
)
from snmodel.network import Network, component_labels

from oracles import (
    census_3_brute_force,
    edge_pairs,
    every_edge_sweep,
    floyd_warshall,
    from_pairs,
    random_network,
    shortest_path_lengths_bfs,
)


def to_nx(net: Network) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(net.n_nodes))
    g.add_edges_from(edge_pairs(net))
    return g


def sparse_multi_component(rng: random.Random, n: int) -> Network:
    """Random forest-plus-chords on shuffled ids: isolated nodes, 4 components."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    rest = nodes[max(1, n // 20) :]
    cuts = sorted(rng.sample(range(1, len(rest)), 3))
    edges: set[tuple[int, int]] = set()
    for a, b in zip([0, *cuts], [*cuts, len(rest)]):
        block = rest[a:b]
        for i in range(1, len(block)):
            u, v = block[i], block[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        for _ in range(len(block) // 2):
            u, v = rng.sample(block, 2)
            edges.add((min(u, v), max(u, v)))
    return from_pairs(n, sorted(edges))


def assert_clustering_matches_networkx(net: Network) -> None:
    g = to_nx(net)
    expected = nx.clustering(g)
    assert local_clustering(net).tolist() == pytest.approx(
        [expected[node] for node in range(net.n_nodes)]
    )
    assert triangle_count(net) == sum(nx.triangles(g).values()) // 3


def networkx_histogram(net: Network) -> dict[int, int]:
    counts: dict[int, int] = {}
    for _, lengths in nx.all_pairs_shortest_path_length(to_nx(net)):
        for length in lengths.values():
            if length > 0:
                counts[length] = counts.get(length, 0) + 1
    return {length: c // 2 for length, c in counts.items()}


def words_of_different_depths(rng: random.Random) -> Network:
    """700 nodes whose 64-source words run out of new nodes at different levels.

    In node order: a word of isolated nodes (done at level 1), a word that
    is a 64-clique (done at level 2), a 150-node path over the next three
    words, and a random tree with chords hung off the path's end. The
    second 512-source chunk ends in a word of 60 sources.
    """
    edges = {(u, v) for u in range(64, 128) for v in range(u + 1, 128)}
    edges |= {(u, u + 1) for u in range(128, 277)}
    edges |= {(rng.randrange(277, v), v) for v in range(278, 700)}
    for _ in range(100):
        u, v = sorted(rng.sample(range(278, 700), 2))
        edges.add((u, v))
    return from_pairs(700, sorted(edges))


def linked_sources(count: int) -> Network:
    """``sparse_multi_component`` with exactly ``count`` nodes that have neighbours."""
    n = next(n for n in itertools.count(count) if n - max(1, n // 20) == count)
    net = sparse_multi_component(random.Random(count), n)
    assert np.count_nonzero(net.degrees()) == count
    return net


def networkx_sweep(net: Network) -> tuple:
    """The histogram and a report's giant/rest split, from networkx's all-pairs BFS."""
    g = to_nx(net)
    giant = max(nx.connected_components(g), key=len)
    expected: dict[int, int] = {}
    giant_sum = 0
    for source, lengths in nx.all_pairs_shortest_path_length(g):
        for target, length in lengths.items():
            if source < target:
                expected[length] = expected.get(length, 0) + 1
                giant_sum += length if source in giant else 0
    total = sum(expected.values())
    return (
        expected,
        len(giant) / net.n_nodes,
        {k: c / total for k, c in expected.items()},
        giant_sum / (len(giant) * (len(giant) - 1) // 2),
    )


def snmodel_sweep(net: Network) -> tuple:
    report = compute_metrics(net)
    return (
        path_length_histogram(net),
        report.largest_component_fraction,
        report.path_length_distribution,
        report.average_path_length_largest_component,
    )


@st.composite
def small_graphs(draw) -> Network:
    n = draw(st.integers(1, 140))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return from_pairs(n, sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}))


class TestDegreeAndPaths:
    def test_average_degree_triangle(self):
        assert average_degree(from_pairs(3, [(0, 1), (1, 2), (0, 2)])) == 2.0

    def test_degree_histogram_includes_isolated(self):
        net = from_pairs(4, [(0, 1)])
        assert degree_histogram(net) == {0: 2, 1: 2}
        assert degree_distribution(net) == {0: 0.5, 1: 0.5}

    def test_path_graph_lengths(self):
        net = from_pairs(3, [(0, 1), (1, 2)])
        assert path_length_histogram(net) == {1: 2, 2: 1}
        assert average_path_length(net) == pytest.approx(4 / 3)

    def test_four_cycle(self):
        net = from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert path_length_histogram(net) == {1: 4, 2: 2}

    def test_disconnected_pairs_excluded(self):
        net = from_pairs(4, [(0, 1), (2, 3)])
        assert path_length_histogram(net) == {1: 2}
        assert compute_metrics(net).path_length_distribution == {1: 1.0}

    @pytest.mark.parametrize(
        "metric",
        [average_degree, degree_distribution, largest_component, average_clustering],
        ids=lambda metric: metric.__name__,
    )
    def test_empty_network_is_undefined(self, metric):
        with pytest.raises(ValueError, match="empty network"):
            metric(from_pairs(0, []))

    def test_no_connected_pairs_is_undefined(self):
        with pytest.raises(ValueError):
            average_path_length(from_pairs(2, []))

    def test_bfs_from_single_source(self):
        net = from_pairs(5, [(0, 1), (1, 2), (2, 3)])
        assert shortest_path_lengths_bfs(net, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_histogram_matches_floyd_warshall(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 50)
            net = random_network(rng, n, rng.uniform(0.05, 0.4))
            dist = floyd_warshall(net)
            expected: dict[int, int] = {}
            for i, j in itertools.combinations(range(n), 2):
                if dist[i][j] != math.inf:
                    expected[dist[i][j]] = expected.get(dist[i][j], 0) + 1
            assert path_length_histogram(net) == expected

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 511, 512, 513, 1100])
    def test_histogram_matches_networkx_at_word_and_chunk_boundaries(self, n):
        # 64 sources or neighbours share one word and 512 one chunk.
        net = sparse_multi_component(random.Random(n), n)
        assert nx.number_connected_components(to_nx(net)) > 4
        assert path_length_histogram(net) == networkx_histogram(net)
        assert_clustering_matches_networkx(net)

    @pytest.mark.parametrize("relabel", [None, 1, 2])
    def test_words_retire_at_their_own_last_level(self, relabel):
        rng = random.Random(3)
        net = words_of_different_depths(rng)
        if relabel is not None:
            perm = list(range(net.n_nodes))
            random.Random(relabel).shuffle(perm)
            net = from_pairs(net.n_nodes, [(perm[u], perm[v]) for u, v in edge_pairs(net)])
        expected = networkx_sweep(net)
        assert expected[1] == 572 / 700
        assert snmodel_sweep(net) == expected

    def test_sweep_frees_each_level_before_the_next(self):
        # About 4.5 MB on the 3000-node comparison network; a level's
        # gathered words still held at the next gather take it to about 7 MB.
        config = load_instance_file(instances_dir() / "comparison.instance")
        net, _ = run_single(config.instance)
        net.to_csr()
        tracemalloc.start()
        try:
            path_length_histogram(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6

    def test_triangle_count_ands_end_words_in_place(self):
        # About 3.7 MB on the 3000-node comparison network; a third array for
        # the ANDed end words takes it to about 5.1 MB.
        config = load_instance_file(instances_dir() / "comparison.instance")
        net, _ = run_single(config.instance)
        net.to_csr()
        tracemalloc.start()
        try:
            metrics._triangles_per_node(net, *metrics._by_component(net))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.8e6

    def test_average_matches_networkx_on_connected_graph(self):
        rng = random.Random(3)
        net = random_network(rng, 40, 0.2)
        g = to_nx(net)
        if nx.is_connected(g):
            assert average_path_length(net) == pytest.approx(
                nx.average_shortest_path_length(g)
            )


@pytest.fixture
def started(monkeypatch) -> list[threading.Thread]:
    """Every thread started while the test runs."""
    threads: list[threading.Thread] = []

    class Recorded(threading.Thread):
        def start(self) -> None:
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


def heap_tree(n: int) -> Network:
    """A connected tree on n nodes: node i hangs off node i // 2."""
    return from_pairs(n, [(i // 2, i) for i in range(1, n)])


class TestSweepThreads:
    """A giant of more than one chunk of sources is swept in slices on ``_WORKERS`` threads."""

    @pytest.mark.parametrize("graph", [511, 512, 513, 1100, 1600, "words"])
    def test_counts_are_exact_for_any_worker_count(self, graph, monkeypatch, started):
        # Partial last words, isolated nodes and several components; giants
        # of 781 and 979 nodes cut into slices of 256, 128 and 64 sources.
        # More workers than CPUs and a short switch interval would expose a
        # lost update to the shared totals.
        if graph == "words":
            net = words_of_different_depths(random.Random(3))
        else:
            net = linked_sources(graph)
        expected = networkx_sweep(net)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(metrics, "_WORKERS", workers)
                assert snmodel_sweep(net) == expected
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize(
        "workers, linked, threads", [(1, 1600, 0), (2, 512, 0), (2, 513, 1), (8, 1100, 7)]
    )
    def test_threads_start_only_beyond_one_chunk(self, monkeypatch, started, workers, linked, threads):
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        net = heap_tree(linked)
        before = threading.active_count()
        path_length_histogram(net)
        assert len(started) == threads
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "linked, widths",
        [
            # A giant of 309 of 513 linked nodes: it and the rest are one whole chunk each.
            (513, [309, 204]),
            # A giant of 781 of 1100 is cut at 256; the rest's 122, 123 and 74 are packed.
            (1100, [256, 256, 256, 13, 245, 74]),
        ],
    )
    def test_only_a_giant_beyond_one_chunk_is_cut_for_threads(
        self, monkeypatch, started, linked, widths
    ):
        # Slices of small components each hold little work: two threads on
        # them sweep slower than the caller alone.
        monkeypatch.setattr(metrics, "_WORKERS", 2)
        sweep, swept = metrics._sweep, []

        def recorded(chunk, *args):
            swept.append(chunk.size)
            return sweep(chunk, *args)

        monkeypatch.setattr(metrics, "_sweep", recorded)
        path_length_histogram(linked_sources(linked))
        assert sorted(swept) == sorted(widths)
        assert len(started) == (len(widths) > 2)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_failing_slice_reaches_the_caller_after_every_join(self, monkeypatch, started, workers):
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        sweep, calls, lock = metrics._sweep, itertools.count(1), threading.Lock()

        def fail_second_slice(*args):
            with lock:
                call = next(calls)
            if call == 2:
                raise RuntimeError("second slice failed")
            return sweep(*args)

        monkeypatch.setattr(metrics, "_sweep", fail_second_slice)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second slice failed"):
            path_length_histogram(linked_sources(1600))
        assert threading.active_count() == before
        assert len(started) == workers - 1
        assert not any(thread.is_alive() for thread in started)


def clique_with_path(first: int, clique: int, path: int) -> list[tuple[int, int]]:
    """A clique on ``clique`` nodes from *first*, with a ``path``-node path hung off its last."""
    edges = [(u, v) for u in range(first, first + clique) for v in range(u + 1, first + clique)]
    end = first + clique - 1
    return edges + [(u, u + 1) for u in range(end, end + path)]


@st.composite
def component_graphs(draw) -> Network:
    """Cliques with a path attached, stars, two-node components and random trees
    with chords, among isolated nodes, on shuffled ids."""
    edges: list[tuple[int, int]] = []
    n = draw(st.integers(0, 8))  # isolated nodes
    for kind in draw(st.lists(st.sampled_from(["clique", "star", "pair", "tree"]), min_size=1, max_size=6)):
        if kind == "clique":
            clique, path = draw(st.integers(3, 40)), draw(st.integers(1, 90))
            edges += clique_with_path(n, clique, path)
            n += clique + path
        elif kind == "star":
            leaves = draw(st.integers(1, 150))
            edges += [(n, n + leaf) for leaf in range(1, leaves + 1)]
            n += 1 + leaves
        elif kind == "pair":
            edges.append((n, n + 1))
            n += 2
        else:
            size = draw(st.integers(3, 150))
            parents = draw(st.lists(st.integers(0, size), min_size=size - 1, max_size=size - 1))
            edges += [(n + parent % v, n + v) for v, parent in zip(range(1, size), parents)]
            chords = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=size))
            edges += [(n + min(c), n + max(c)) for c in chords if c[0] != c[1]]
            n += size
    perm = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(perm)
    return from_pairs(n, sorted({(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}))


def every_edge_pair_counts(net: Network) -> list[int]:
    """Level totals of ``every_edge_sweep`` from every node with a neighbour,
    in 512-source chunks over the CSR of those nodes alone."""
    linked = net.subgraph(net.degrees() > 0)
    indptr, indices = linked.to_csr()
    runs = [
        every_edge_sweep(np.arange(first, min(first + 512, linked.n_nodes)), indptr[:-1], indices)
        for first in range(0, linked.n_nodes, 512)
    ]
    return [sum(level) for level in itertools.zip_longest(*runs, fillvalue=0)] or [0]


def planned_pair_counts(net: Network) -> tuple[list[int], list[int]]:
    """The giant's and the rest's level totals through the slice plan."""
    _, ends, ordered = metrics._by_component(net)
    return metrics._pair_counts(ordered, ends)


def assert_levels_match_oracle(net: Network) -> None:
    """The planned sweep gives the every-edge sweep's level totals on the
    network, its giant's subgraph and its rest's, at 1, 2, 3 and 8 workers,
    and splits the network's into its giant's and its rest's."""
    labels = component_labels(net.n_nodes, net.edge_u, net.edge_v)
    giant = labels == np.argmax(np.bincount(labels))
    graphs = [net, net.subgraph(giant), net.subgraph(~giant)]
    expected = [every_edge_pair_counts(graph) for graph in graphs]
    for workers in (1, 2, 3, 8):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(metrics, "_WORKERS", workers)
            planned = [planned_pair_counts(graph) for graph in graphs]
        summed = [[a + b for a, b in itertools.zip_longest(*pair, fillvalue=0)] for pair in planned]
        assert summed == expected
        assert list(planned[0]) == expected[1:]


class TestSweepLevels:
    """The sweep's level totals, level 1 scattered and the open nodes' rows
    at the tail, equal the every-edge oracle's."""

    @settings(max_examples=40, deadline=None)
    @given(component_graphs())
    def test_levels_match_the_every_edge_oracle(self, net):
        assert_levels_match_oracle(net)

    @pytest.mark.parametrize("graph", [511, 513, 1100, "words", "path"])
    def test_levels_match_the_oracle_with_partial_last_words(self, graph):
        if graph == "words":
            net = words_of_different_depths(random.Random(3))
        elif graph == "path":
            net = from_pairs(700, [(u, u + 1) for u in range(699)])
        else:
            net = linked_sources(graph)
        assert_levels_match_oracle(net)

    @pytest.mark.parametrize(
        "n, edges, hist",
        [
            (5, [(1, 3)], {1: 1}),
            (3, [(0, 1), (1, 2)], {1: 2, 2: 1}),
            (6, [(0, leaf) for leaf in range(1, 6)], {1: 5, 2: 10}),
            (4, [(0, 1), (2, 3)], {1: 2}),
        ],
        ids=["edge-among-isolated", "path-3", "star-5", "two-pairs"],
    )
    def test_levels_match_the_oracle_on_tiny_graphs(self, n, edges, hist):
        # Graphs whose level 2 finds nothing or closes every node.
        net = from_pairs(n, edges)
        assert path_length_histogram(net) == hist
        assert_levels_match_oracle(net)

    def test_no_level_gathers_for_level_1_or_finds_nothing(self, monkeypatch):
        # Sources on a 200-clique with a 300-node path: from level 2 on only
        # the path's nodes are open.
        net = from_pairs(500, clique_with_path(0, 200, 300))
        indptr, indices = net.to_csr()
        chunk = np.arange(200)
        levels = every_edge_sweep(chunk, indptr[:-1], indices)
        assert 0 not in levels[1:]
        gathered: list[int] = []

        def reduceat(values, *args, **kwargs):
            gathered.append(values.size)
            return np.bitwise_or.reduceat(values, *args, **kwargs)

        counted = types.SimpleNamespace(**vars(np))
        counted.bitwise_or = types.SimpleNamespace(
            at=np.bitwise_or.at, reduce=np.bitwise_or.reduce, reduceat=reduceat
        )
        monkeypatch.setattr(metrics, "np", counted)
        assert metrics._sweep(chunk, indptr[:-1], indices) == levels
        # One gather per level from level 2 to the last that finds pairs; after
        # level 2 each reads only the open path nodes' rows.
        assert len(gathered) == len(levels) - 2
        assert gathered[0] == 4 * indices.size
        assert max(gathered[1:]) <= 4 * 2 * 300

    def test_rows_narrow_again_at_each_level_that_closes_one(self, monkeypatch):
        # Sources on a 200-clique with a 300-node path off node 199 (nodes
        # 200-499) and a 100-node path off node 0 (500-599). Each level from
        # level 2 on closes a node of each path, and level 101 the short path's last.
        edges = clique_with_path(0, 200, 300) + [(0, 500)] + [(u, u + 1) for u in range(500, 599)]
        net = from_pairs(600, edges)
        indptr, indices = net.to_csr()
        chunk = np.arange(200)
        levels = every_edge_sweep(chunk, indptr[:-1], indices)
        assert len(levels) == 302
        gathered: list[int] = []
        read: list[np.ndarray] = []

        def reduceat(values, *args, **kwargs):
            gathered.append(values.size)
            return np.bitwise_or.reduceat(values, *args, **kwargs)

        def take(values, targets, **kwargs):
            read.append(targets)
            return np.take(values, targets, **kwargs)

        counted = types.SimpleNamespace(**vars(np))
        counted.take = take
        counted.bitwise_or = types.SimpleNamespace(
            at=np.bitwise_or.at, reduce=np.bitwise_or.reduce, reduceat=reduceat
        )
        monkeypatch.setattr(metrics, "np", counted)
        assert metrics._sweep(chunk, indptr[:-1], indices) == levels
        # Gather g is level g + 2: level 2 reads every edge, and each later
        # level fewer words than the one before, as the open rows shrink.
        assert len(gathered) == len(levels) - 2
        assert gathered[0] == 4 * indices.size
        assert all(later < earlier for earlier, later in zip(gathered[1:], gathered[2:]))
        # From level 102 on only the long path's rows are open: their
        # neighbours are its nodes and node 199.
        assert all(targets.min() >= 199 and targets.max() < 500 for targets in read[100:])
        assert read[99].max() >= 500


def components_of(sizes: list[int], rng: random.Random) -> Network:
    """One random tree with chords per size, on shuffled ids; size 1 is an isolated node."""
    edges: list[tuple[int, int]] = []
    n = 0
    for size in sizes:
        edges += [(n + rng.randrange(v), n + v) for v in range(1, size)]
        if size > 2:
            edges += [tuple(n + x for x in rng.sample(range(size), 2)) for _ in range(size // 2)]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return from_pairs(n, sorted({(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}))


@st.composite
def fragmented_graphs(draw) -> Network:
    """Components at word and chunk boundaries among single nodes and pairs."""
    sizes = draw(
        st.lists(st.sampled_from([63, 64, 65, 255, 256, 257, 511, 512, 513]), max_size=5).filter(
            lambda sizes: sum(sizes) <= 1300
        )
    )
    sizes += [1] * draw(st.integers(0, 30)) + [2] * draw(st.integers(1, 60))
    draw(st.randoms(use_true_random=False)).shuffle(sizes)
    return components_of(sizes or [1], draw(st.randoms(use_true_random=False)))


def assert_plan_matches_oracles(net: Network) -> None:
    """Histogram, giant/rest split and per-node triangles through the plan
    equal networkx's and the every-edge sweep's at 1, 2, 3 and 8 workers."""
    expected = networkx_sweep(net)
    assert metrics._unordered(every_edge_pair_counts(net)) == expected[0]
    for workers in (1, 2, 3, 8):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(metrics, "_WORKERS", workers)
            assert snmodel_sweep(net) == expected
    triangles = nx.triangles(to_nx(net))
    assert local_clustering(net).tolist() == pytest.approx(
        list(nx.clustering(to_nx(net)).values())
    )
    got = metrics._triangles_per_node(net, *metrics._by_component(net))
    assert got.tolist() == [triangles[node] for node in range(net.n_nodes)]


class TestSlicePlan:
    """One plan over the component-ordered network slices the sweep and the
    triangle count: the giant first, the others whole, each slice over the rows
    of its own components."""

    @settings(max_examples=12, deadline=None)
    @given(fragmented_graphs())
    def test_fragmented_graphs_match_the_oracles(self, net):
        assert_plan_matches_oracles(net)

    @pytest.mark.parametrize(
        "sizes",
        [
            [513, 513, 2, 2, 1, 1],  # tied giants; the other is wider than a chunk
            [600, 257, 65, 64, 63, 2, 1],  # non-giants wider than a slice at 2+ workers
            [256, 256, 255, 2, 1],  # tied giants of one slice at 2 workers
            [511, 512, 64, 63, 2, 2, 1],  # a giant of exactly one chunk
        ],
        ids=["tied-513", "wide-non-giants", "tied-256", "one-chunk-giant"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixed_components_match_the_oracles(self, sizes, seed):
        assert_plan_matches_oracles(components_of(sizes, random.Random(seed)))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_slices_hold_whole_components_and_each_source_once(self, workers):
        net = components_of([600, 513, 257, 65, 64, 63, 2, 2, 2, 1, 1], random.Random(5))
        _, ends, ordered = metrics._by_component(net)
        # The giant, then the others by smallest id; single nodes have no row.
        sizes = np.diff(ends, prepend=0).tolist()
        assert sizes[0] == 600 and sorted(sizes[1:]) == [2, 2, 2, 63, 64, 65, 257, 513]
        width = 512 // workers // 64 * 64
        slices = metrics._slices(ordered, ends, width)
        sources: list[int] = []
        for lo, chunk, starts, rows in slices:
            hi = lo + starts.size
            assert {lo, hi} <= {0, *ends.tolist()}
            assert 0 < chunk.size <= width and 0 <= rows.min() and rows.max() < starts.size
            if hi - lo > width:  # cut apart: the rows are one component's
                assert hi == ends[np.searchsorted(ends, lo, side="right")]
            else:  # packed whole
                assert chunk.tolist() == list(range(hi - lo))
            sources += (lo + chunk).tolist()
        assert sources == list(range(ends[-1]))
        # The giant's slices come first, and only they start at row 0.
        at_zero = [lo == 0 for lo, *_ in slices]
        assert at_zero == sorted(at_zero, reverse=True) and sum(at_zero) == -(-600 // width)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_a_connected_network_is_swept_uncopied_in_even_slices(self, workers):
        net = heap_tree(1100)
        indptr, indices = net.to_csr()
        _, ends, ordered = metrics._by_component(net)
        assert ordered is net and ends.tolist() == [1100]
        width = 512 // workers // 64 * 64
        slices = metrics._slices(ordered, ends, width)
        assert [chunk.tolist() for _, chunk, _, _ in slices] == [
            list(range(first, min(first + width, 1100))) for first in range(0, 1100, width)
        ]
        for lo, _, starts, rows in slices:
            assert lo == 0 and np.array_equal(starts, indptr[:-1]) and np.array_equal(rows, indices)

    def test_fragments_sweep_and_count_over_their_own_rows(self, monkeypatch):
        # 20 000 disjoint edges: no slice or triangle chunk spans more than 512 rows.
        net = Network([None] * 40_000, np.arange(0, 40_000, 2), np.arange(1, 40_000, 2))
        spans: list[int] = []
        first_level = metrics._first_level

        def recorded(chunk, starts, *args):
            spans.append(starts.size)
            return first_level(chunk, starts, *args)

        monkeypatch.setattr(metrics, "_first_level", recorded)
        report = compute_metrics(net)
        assert report.path_length_distribution == {1: 1.0}
        assert report.largest_component_fraction == 2 / 40_000
        assert report.motif_census[3] == 0
        assert 0 < max(spans) <= 512

    def test_triangle_count_allocates_by_edges_on_fragmented_ids(self):
        # 500 000 nodes and one edge: one chunk's words over every node would be 32 MB.
        net = Network([None] * 500_000, [0], [1])
        tracemalloc.start()
        try:
            assert triangle_count(net) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def isolated_at_chunk_edges() -> Network:
    """G(1100, 0.05) less every edge at nodes 0, 511, 512 and 1099, the first
    and last nodes of 512-node chunks."""
    net = random_network(random.Random(1100), 1100, 0.05)
    isolated = {0, 511, 512, 1099}
    return from_pairs(
        1100, [(u, v) for u, v in edge_pairs(net) if u not in isolated and v not in isolated]
    )


class TestFirstLevel:
    """``_first_level`` reads a contiguous chunk's rows as one slice of the adjacency."""

    @pytest.mark.parametrize(
        "linked, first, last",
        [
            (False, 0, 512),  # first and last node isolated
            (False, 512, 1024),  # first node isolated, last one with neighbours
            (False, 1024, 1100),  # partial last word, ends on the last row, isolated
            (False, 1, 511),  # partial last word inside the CSR
            (False, 1098, 1099),  # one node, the last with neighbours
            (True, 0, 512),  # the sweep's CSR: every node has neighbours
            (True, 1024, 1096),  # partial last word, ends on the last row
        ],
    )
    def test_bits_equal_an_edge_by_edge_or(self, linked, first, last):
        net = isolated_at_chunk_edges()
        if linked:
            net = net.subgraph(net.degrees() > 0)
        indptr, indices = net.to_csr()
        assert indptr.size - 1 == (1096 if linked else 1100)
        chunk = np.arange(first, last)
        expected = np.zeros(((chunk.size + 63) // 64, net.n_nodes), dtype=np.uint64)
        for i, node in enumerate(chunk.tolist()):
            for neighbour in indices[indptr[node] : indptr[node + 1]].tolist():
                expected[i // 64, neighbour] |= np.uint64(1) << np.uint64(i % 64)
        bits = metrics._first_level(chunk, indptr[:-1], np.diff(indptr), indices)
        assert np.array_equal(bits, expected)


class TestEachOnCpus:
    """``_each_on_cpus`` shares more than ``_WORKERS`` items among the caller and
    ``_WORKERS - 1`` threads; fewer run on the caller."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_come_back_in_input_order(self, monkeypatch, started, workers):
        # Later items finish first, so completion order is the reverse of input
        # order. A short switch interval would expose an item claimed twice.
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        before = threading.active_count()

        def square_late_first(x):
            time.sleep(0.001 * (10 - x))
            return x * x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            squares = metrics._each_on_cpus(square_late_first, range(10))
        finally:
            sys.setswitchinterval(interval)
        assert squares == [x * x for x in range(10)]
        assert len(started) == workers - 1
        assert metrics._each_on_cpus(square_late_first, []) == []
        assert len(started) == workers - 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_nested_call_starts_no_thread(self, monkeypatch, started, workers):
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        before = threading.active_count()

        def inner_threads(x):
            outer = threading.get_ident()
            idents = metrics._each_on_cpus(lambda y: threading.get_ident(), range(10))
            return x, set(idents) == {outer}

        result = metrics._each_on_cpus(inner_threads, range(10))
        assert result == [(x, True) for x in range(10)]
        assert len(started) == workers - 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_few_items_run_on_the_caller_and_share_their_own(self, monkeypatch, started, workers):
        # As many items as workers would leave threads idle once the shorter
        # ones end, so the caller runs them and each shares its own items.
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        before = threading.active_count()

        def inner_threads(x):
            metrics._each_on_cpus(lambda y: y, range(workers + 1))
            return threading.get_ident()

        idents = metrics._each_on_cpus(inner_threads, range(workers))
        assert idents == [threading.get_ident()] * workers
        assert len(started) == workers * (workers - 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_failing_item_reaches_the_caller_after_every_join(self, monkeypatch, started, workers):
        # Item 0 is claimed before item 1 fails and is still running when it
        # does, unless it runs on the caller, which then finishes it first.
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        before = threading.active_count()
        finished: list[int] = []

        def fail_item_1(x):
            if x == 1:
                raise RuntimeError("item 1 failed")
            time.sleep(0.05)
            finished.append(x)

        with pytest.raises(RuntimeError, match="item 1 failed"):
            metrics._each_on_cpus(fail_item_1, range(10))
        assert 0 in finished
        assert not any(thread.is_alive() for thread in started)
        assert len(started) == workers - 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["item", "wait"])
    def test_ctrl_c_in_the_caller_stops_the_claims_and_waits_for_running_items(
        self, monkeypatch, started, where
    ):
        # "item": Ctrl-C lands in an item the caller runs. "wait": the caller
        # has run its items and waits for the thread, which is still in its own.
        monkeypatch.setattr(metrics, "_WORKERS", 2)
        before = threading.active_count()
        caller = threading.get_ident()
        events: list[tuple[str, int]] = []
        thread_in = threading.Event()

        def item(x):
            events.append(("claim", x))
            if threading.get_ident() != caller:
                thread_in.set()
                if where == "wait":
                    while sum(event == "done" for event, _ in events) < 2:
                        time.sleep(0.001)
                    time.sleep(0.05)
                    signal.pthread_kill(caller, signal.SIGINT)
                time.sleep(0.1)
            else:
                thread_in.wait(5)
                if where == "item":
                    events.append(("ctrl-c", x))
                    raise KeyboardInterrupt
            events.append(("done", x))

        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                metrics._each_on_cpus(item, range(6 if where == "item" else 3))
        finally:
            signal.signal(signal.SIGINT, handler)
        claimed = [x for event, x in events if event == "claim"]
        assert sorted(x for event, x in events if event == "done") == [
            x for x in sorted(claimed) if ("ctrl-c", x) not in events
        ]
        if where == "item":
            assert claimed == [0, 1] and events[-1][0] == "done"
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before


class TestClustering:
    def test_triangle_with_pendant(self):
        net = from_pairs(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        coeff = local_clustering(net)
        assert coeff[0] == pytest.approx(1 / 3)
        assert coeff[1] == 1.0
        assert coeff[2] == 1.0
        assert coeff[3] == 0.0
        assert average_clustering(net) == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)

    def test_low_degree_counts_as_zero_in_mean(self):
        net = from_pairs(2, [(0, 1)])
        assert average_clustering(net) == 0.0

    @pytest.mark.parametrize("n", [513, 1100])
    def test_matches_networkx_across_chunks(self, n):
        # Dense enough that most triangles span two 512-node chunks.
        net = random_network(random.Random(n), n, 0.05)
        assert_clustering_matches_networkx(net)

    def test_chunks_take_their_bits_from_the_sweep_s_first_level(self, monkeypatch):
        # 1100 nodes are three 512-node chunks, each built by the sweep's
        # level-1 builder and none by a bit scatter of its own.
        net = random_network(random.Random(1100), 1100, 0.05)
        built: list[int] = []
        ored: list[tuple] = []
        first_level = metrics._first_level

        def counted_first_level(chunk, *args):
            built.append(chunk.size)
            return first_level(chunk, *args)

        def bitwise_or_at(*args):
            ored.append(args)
            return np.bitwise_or.at(*args)

        counted = types.SimpleNamespace(**vars(np))
        counted.bitwise_or = types.SimpleNamespace(
            at=bitwise_or_at, reduce=np.bitwise_or.reduce, reduceat=np.bitwise_or.reduceat
        )
        monkeypatch.setattr(metrics, "np", counted)
        monkeypatch.setattr(metrics, "_first_level", counted_first_level)
        triangles = metrics._triangles_per_node(net, *metrics._by_component(net))
        assert built == [512, 512, 76]
        assert ored == []
        expected = nx.triangles(to_nx(net))
        assert triangles.tolist() == [expected[node] for node in range(net.n_nodes)]

    def test_matches_networkx_with_isolated_nodes_at_chunk_edges(self):
        net = isolated_at_chunk_edges()
        expected = nx.triangles(to_nx(net))
        assert metrics._triangles_per_node(net, *metrics._by_component(net)).tolist() == [
            expected[node] for node in range(net.n_nodes)
        ]

    def test_matches_networkx(self):
        rng = random.Random(11)
        for _ in range(20):
            net = random_network(rng, rng.randint(3, 40), rng.uniform(0.1, 0.6))
            expected = nx.clustering(to_nx(net))
            got = local_clustering(net)
            for node, value in expected.items():
                assert got[node] == pytest.approx(value)
            assert average_clustering(net) == pytest.approx(
                sum(expected.values()) / net.n_nodes
            )

    def test_clustering_by_degree(self):
        net = from_pairs(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        by_degree = compute_metrics(net).clustering_by_degree
        assert by_degree[3] == pytest.approx(1 / 3)
        assert by_degree[2] == 1.0
        assert by_degree[1] == 0.0

    @staticmethod
    def assert_means_are_masked_means(net: Network) -> None:
        degrees, coeff = net.degrees(), local_clustering(net)
        expected = {int(k): float(coeff[degrees == k].mean()) for k in np.unique(degrees)}
        got = compute_metrics(net).clustering_by_degree
        assert list(got.items()) == list(expected.items())
        assert all(type(k) is int and type(v) is float for k, v in got.items())

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_clustering_by_degree_is_each_degree_s_masked_mean(self, net):
        self.assert_means_are_masked_means(net)

    @pytest.mark.parametrize("n", [300, 600])
    def test_clustering_by_degree_sums_in_node_order(self, n):
        # Enough nodes share a degree that summing them in another order,
        # as an unstable sort would, changes the last bits of some means.
        self.assert_means_are_masked_means(random_network(random.Random(n), n, 0.05))

    def test_triangle_count(self):
        net = from_pairs(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert triangle_count(net) == 2


class TestMotifCensus:
    def test_triangle_plus_isolated(self):
        net = from_pairs(4, [(0, 1), (1, 2), (0, 2)])
        assert motif_census_3(net) == {0: 0, 1: 3, 2: 0, 3: 1}

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(40):
            net = random_network(rng, rng.randint(3, 30), rng.uniform(0.0, 0.8))
            assert motif_census_3(net) == census_3_brute_force(net)

    def test_census_totals(self):
        rng = random.Random(5)
        net = random_network(rng, 20, 0.3)
        census = motif_census_3(net)
        assert sum(census.values()) == math.comb(20, 3)

    def test_requires_three_nodes(self):
        with pytest.raises(ValueError):
            motif_census_3(from_pairs(2, [(0, 1)]))


class TestHeterogeneity:
    def test_stars_reach_one(self):
        for n in range(3, 51):
            net = from_pairs(n, [(0, i) for i in range(1, n)])
            assert heterogeneity_index(net) == pytest.approx(1.0, abs=1e-9)

    def test_regular_graphs_are_zero(self):
        cycle = from_pairs(8, [(i, (i + 1) % 8) for i in range(8)])
        assert heterogeneity_index(cycle) == pytest.approx(0.0, abs=1e-12)
        complete = from_pairs(
            6, list(itertools.combinations(range(6), 2))
        )
        assert heterogeneity_index(complete) == pytest.approx(0.0, abs=1e-12)

    def test_path_graph_value(self):
        # Two end edges contribute (1 - 1/sqrt(2))^2 each.
        net = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        expected = 2 * (1 - 1 / math.sqrt(2)) ** 2 / (4 - 2 * math.sqrt(3))
        assert heterogeneity_index(net) == pytest.approx(expected)

    def test_requires_three_nodes(self):
        with pytest.raises(ValueError):
            heterogeneity_index(from_pairs(2, [(0, 1)]))

    def test_empty_graph_is_zero(self):
        assert heterogeneity_index(from_pairs(5, [])) == 0.0


class TestPowerLawFit:
    def test_exact_power_law(self):
        dist = {k: k**-2.0 for k in (1, 2, 4, 8)}
        slope, r2 = fit_power_law_slope(dist, 1)
        assert slope == pytest.approx(-2.0)
        assert r2 == pytest.approx(1.0)

    def test_scale_invariance(self):
        dist = {k: k**-2.0 for k in (1, 2, 4, 8)}
        scaled = {k: 7.3 * p for k, p in dist.items()}
        assert fit_power_law_slope(scaled, 1)[0] == pytest.approx(-2.0)

    def test_k_min_filters(self):
        dist = {1: 0.9, 2: 2**-1.5, 4: 4**-1.5, 8: 8**-1.5, 16: 16**-1.5}
        slope, r2 = fit_power_law_slope(dist, 2)
        assert slope == pytest.approx(-1.5)
        assert r2 == pytest.approx(1.0)

    def test_zero_bins_skipped(self):
        dist = {1: 0.5, 2: 0.0, 4: 0.5**4}
        slope, _ = fit_power_law_slope(dist, 1)
        assert slope == pytest.approx(math.log10(0.5**4 / 0.5) / math.log10(4))

    def test_flat_distribution_fits_exactly(self):
        slope, r2 = fit_power_law_slope({1: 0.5, 2: 0.5}, 1)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            fit_power_law_slope({3: 1.0}, 1)
        with pytest.raises(ValueError):
            fit_power_law_slope({1: 0.5, 2: 0.5}, 2)


class TestComponentsAndReport:
    def test_component_sizes(self):
        net = from_pairs(5, [(0, 1), (1, 2), (3, 4)])
        sizes = sorted((len(c) for c in nx.connected_components(to_nx(net))), reverse=True)
        assert sizes == [3, 2]
        assert compute_metrics(net).largest_component_fraction == 0.6
        giant = largest_component(net)
        assert giant.n_nodes == 3

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)],
            [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)],
        ],
        ids=["triangle-first", "path-first"],
    )
    def test_report_breaks_component_ties_like_largest_component(self, edges):
        net = from_pairs(6, edges)
        report = compute_metrics(net)
        assert report.average_path_length_largest_component == average_path_length(
            largest_component(net)
        )
        assert report.largest_component_fraction == 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_giant_tie_goes_to_the_component_with_the_smallest_id(self, seed):
        # Four 8-node components of different shapes on shuffled ids tie for
        # the giant; networkx finds the components, the smallest id decides.
        rng = random.Random(seed)
        ids = list(range(40))
        rng.shuffle(ids)
        edges: set[tuple[int, int]] = set()
        for start in range(0, 32, 8):
            block = ids[start : start + 8]
            for i in range(1, 8):
                u, v = block[i], block[rng.randrange(i)]
                edges.add((min(u, v), max(u, v)))
            for _ in range(rng.randrange(8)):
                u, v = rng.sample(block, 2)
                edges.add((min(u, v), max(u, v)))
        net = Network([str(i) for i in range(40)], *zip(*sorted(edges)))
        g = to_nx(net)
        components = list(nx.connected_components(g))
        size = max(len(c) for c in components)
        expected = min((c for c in components if len(c) == size), key=min)
        assert sorted(int(s) for s in largest_component(net).structures) == sorted(expected)
        report = compute_metrics(net)
        assert report.largest_component_fraction == size / 40
        assert report.average_path_length_largest_component == pytest.approx(
            nx.average_shortest_path_length(g.subgraph(expected))
        )

    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_report_agrees_with_component_functions(self, net):
        report = compute_metrics(net)
        giant = largest_component(net)
        expected = average_path_length(giant) if giant.n_nodes >= 2 else None
        assert report.average_path_length_largest_component == expected
        assert report.largest_component_fraction == giant.n_nodes / net.n_nodes
        hist = path_length_histogram(net)
        expected = average_path_length(net) if hist else None
        assert report.average_path_length == expected

    def test_report_on_small_graph(self):
        net = from_pairs(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        report = compute_metrics(net)
        assert report.n_nodes == 4
        assert report.n_edges == 4
        assert report.average_degree == 2.0
        assert report.average_path_length == pytest.approx((1 * 4 + 2 * 2) / 6)
        assert report.largest_component_fraction == 1.0
        assert report.motif_census == {0: 0, 1: 1, 2: 2, 3: 1}
        assert sum(report.degree_distribution.values()) == pytest.approx(1.0)
        assert sum(report.path_length_distribution.values()) == pytest.approx(1.0)

    def test_report_handles_undefined_metrics(self):
        net = from_pairs(2, [])
        report = compute_metrics(net)
        assert report.average_path_length is None
        assert report.heterogeneity is None
        assert report.motif_census is None
        assert report.path_length_distribution == {}

    def test_report_with_fit(self):
        net = grow_star_like()
        report = compute_metrics(net, fit_k_min=1)
        assert report.fitted_slope is not None
        assert report.fit_k_min == 1

    def test_relabel_invariance(self):
        rng = random.Random(17)
        net = random_network(rng, 25, 0.25)
        perm = list(range(25))
        rng.shuffle(perm)
        relabeled = from_pairs(
            25, [(perm[u], perm[v]) for u, v in edge_pairs(net)]
        )
        a = compute_metrics(net)
        b = compute_metrics(relabeled)
        assert a.average_degree == pytest.approx(b.average_degree)
        assert a.average_path_length == pytest.approx(b.average_path_length)
        assert a.average_clustering == pytest.approx(b.average_clustering)
        assert a.heterogeneity == pytest.approx(b.heterogeneity)
        assert a.motif_census == b.motif_census
        assert a.degree_distribution == b.degree_distribution


def grow_star_like() -> Network:
    edges = [(0, i) for i in range(1, 10)] + [(1, 2), (3, 4)]
    return from_pairs(10, edges)
