"""Topology metrics: degrees, path lengths, clustering, motifs, heterogeneity.

Path lengths come from one bit-parallel multi-source BFS (Then et al., "The
More the Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014):
each 64-source word of a 512-source chunk is one row of node bits (words-major), a BFS level
is one flat gather and OR-reduce over the CSR adjacency, and a word that reaches nothing retires.
Level 1 is scattered from the sources' rows, one slice of the adjacency. Later levels gather
over one set of rows, at first every node: after the level that finds the most pairs, once the
open nodes, those some live source has not reached, hold under half of the edges, the rows
narrow to them, and again at each level that closes one, as the bottom-up step of Beamer,
Asanović & Patterson (SC 2012) pulls only into unvisited vertices. The sweep ends when no node
is open, without the closing level that finds nothing. One plan slices both the sweep and the
triangle count: the nodes with neighbours in component order, giant first, and each slice's
rows those of its own whole components, so every node closes and a fragment costs its edges.
Independent work runs on every usable CPU, as Then et al. run independent source
batches: ``_each_on_cpus`` shares more items than CPUs among the calling thread and one
plain thread per further CPU, and runs fewer, or a call made inside an item, on the caller.
A sweep whose giant spans more than one chunk hands it slices ``_CHUNK // _WORKERS`` wide, so
one chunk's words are in flight; compare-ba hands it whole prefix reports, whose sweeps
run whole chunks inline. A sweep of one chunk, or one on a one-CPU host, starts no
thread. No flag sets the count. Triangles take each 512-node chunk's neighbour bits from the
sweep's level-1 builder, whose adds OR because ``Network`` admits no edge twice. Components
come from min-label hooking with pointer jumping (Shiloach & Vishkin, 1982).
``compute_metrics`` sweeps and counts triangles once per report. Tests check
these against plain-Python, Floyd-Warshall, networkx and brute-force oracles.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import repeat, zip_longest
from typing import Callable, Mapping, Sequence

import numpy as np

from .network import Network, component_labels

#: Sources per BFS chunk or neighbours per triangle chunk: 8 uint64 words per node.
_CHUNK = 512
#: Bit i % 64 of a word, for the i-th node of a chunk.
_ONES = np.uint64(1) << (np.arange(_CHUNK, dtype=np.uint64) % 64)
#: Threads that sweep slices of one chunk, the caller included: one per
#: usable CPU, at most one per 64-source word of a chunk.
_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    _CHUNK // 64,
)
#: Set on a thread while it runs an item of ``_each_on_cpus``.
_in_item = threading.local()


def average_degree(net: Network) -> float:
    """2 * edges / nodes."""
    if net.n_nodes == 0:
        raise ValueError("average degree is undefined for an empty network")
    return 2.0 * net.n_edges / net.n_nodes


def degree_histogram(net: Network) -> dict[int, int]:
    """Node count per degree value, zero degrees included."""
    counts = np.bincount(net.degrees()) if net.n_nodes else np.zeros(0, np.int64)
    return {k: int(c) for k, c in enumerate(counts) if c > 0}


def degree_distribution(net: Network) -> dict[int, float]:
    """Fraction of nodes per degree value."""
    if net.n_nodes == 0:
        raise ValueError("degree distribution is undefined for an empty network")
    n = net.n_nodes
    return {k: c / n for k, c in degree_histogram(net).items()}


def _each_on_cpus(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` in input order, computed on every usable CPU.

    More items than ``_WORKERS`` are taken in turn by the calling thread and
    ``_WORKERS - 1`` plain threads, and a call made inside one runs inline;
    fewer run on the caller, each free to share its own. The first exception
    or a Ctrl-C in the caller stops the claims and is raised once no item runs.
    """
    if len(items) <= _WORKERS or getattr(_in_item, "active", False):
        return [fn(x) for x in items]
    results: list = [None] * len(items)
    claims = iter(range(len(items)))
    failed: list[BaseException] = []
    running = _WORKERS  # calls of work() not yet ended
    lock = threading.Condition()

    def work() -> None:
        nonlocal running
        _in_item.active = True
        try:
            while True:
                with lock:
                    i = None if failed else next(claims, None)
                if i is None:
                    return
                results[i] = fn(items[i])
        except BaseException as exc:  # re-raised by the caller once no item runs
            with lock:
                failed.append(exc)
        finally:
            _in_item.active = False
            with lock:
                running -= 1
                lock.notify()

    threads = [threading.Thread(target=work) for _ in range(_WORKERS - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
        with lock:  # not Thread.join: one interrupted by a Ctrl-C marks its thread ended
            lock.wait_for(lambda: not running)
    except BaseException as exc:  # a Ctrl-C in the caller: no new claims; running items end
        with lock:
            failed.insert(0, exc)
    for thread in threads:
        if thread.is_alive():
            thread.join()
    if failed:
        raise failed[0]
    return results


def _by_component(net: Network) -> tuple[np.ndarray, np.ndarray, Network]:
    """The nodes with neighbours in component order (the giant, ``largest_component``'s,
    first, then each other component whole, by smallest id), the row after each
    component, and *net* on them in that order: itself if already so, as when connected.
    """
    labels = component_labels(net.n_nodes, net.edge_u, net.edge_v)
    linked = np.flatnonzero(net.degrees())
    key = labels[linked]
    key[key == np.argmax(np.bincount(labels, minlength=1))] = -1
    by = np.argsort(key, kind="stable")
    order, ends = linked[by], np.append(np.flatnonzero(np.diff(key[by])) + 1, linked.size)
    if order.size == net.n_nodes and np.array_equal(order, np.arange(order.size)):
        return order, ends, net
    rows = np.argsort(by)[np.searchsorted(linked, (net.edge_u, net.edge_v))]  # edge ends' rows
    return order, ends, Network(repeat(None, order.size), *rows)


def _slices(net: Network, ends: np.ndarray, width: int) -> list[tuple]:
    """The plan: ``(lo, chunk, starts, indices)`` per slice of at most *width* of the
    sources of *net*, in component order with *ends*: the CSR of rows lo.. of the whole
    components the slice lies in, and its sources among them. The giant, and any other
    component wider than *width*, is cut apart; the others are packed whole.
    """
    indptr, indices = net.to_csr()
    slices, lo = [], 0
    while lo < ends[-1]:
        hi = int(ends[np.searchsorted(ends, lo, side="right")])
        if lo and hi - lo <= width:
            hi = int(ends[np.searchsorted(ends, lo + width, side="right") - 1])
        starts, rows = indptr[lo:hi] - indptr[lo], indices[indptr[lo] : indptr[hi]] - lo
        cuts = range(0, hi - lo, width)
        slices += [(lo, np.arange(f, min(f + width, hi - lo)), starts, rows) for f in cuts]
        lo = hi
    return slices


def _pair_counts(net: Network, ends: np.ndarray) -> tuple[list[int], list[int]]:
    """Ordered (source, target) pairs at each distance >= 1 in the giant and in the
    rest of *net*, in component order with *ends*; entry 0 of each is 0. A giant over
    one chunk is planned in slices ``_CHUNK // _WORKERS`` wide for ``_each_on_cpus``,
    so one chunk's words are in flight; otherwise, or inside one of its items, in
    whole chunks. Level totals are Python ints, so the sums are the same for any plan.
    """
    shared = ends[0] > _CHUNK and not getattr(_in_item, "active", False)
    slices = _slices(net, ends, _CHUNK // (_WORKERS if shared else 1) // 64 * 64)
    per_slice = _each_on_cpus(lambda s: _sweep(*s[1:]), slices)
    giant = sum(not s[0] for s in slices)  # the giant's slices come first
    runs = per_slice[:giant], per_slice[giant:]
    return tuple([sum(level) for level in zip_longest(*r, fillvalue=0)] or [0] for r in runs)


def _sweep(chunk: np.ndarray, starts: np.ndarray, indices: np.ndarray) -> list[int]:
    """Ordered pairs at each distance from a slice of at most ``_CHUNK`` sources.

    One BFS runs from the slice at once: bit i % 64 of word i // 64 at a
    node stands for source i. Level 1 is scattered from the sources' rows. A
    later level ORs the neighbour frontiers of each node in one set of rows,
    at first every node, and keeps the bits of sources that had not reached
    it; a word with none is done. After the level that finds the most pairs
    a node is open while a live word's source has not reached it: once the
    open nodes hold under half of the edges, the rows narrow to them, and
    again at each level that closes a row. The sweep ends when none is open.
    """
    n, m = starts.size, indices.size
    frontier = np.zeros(((chunk.size + 63) // 64, n), dtype=np.uint64)
    frontier[np.arange(chunk.size) // 64, chunk] = _ONES[: chunk.size]
    # Each word's source bits, less those of the sources at a node.
    unseen = np.bitwise_or.reduce(frontier, axis=1)[:, None] ^ frontier
    degree = np.diff(starts, append=m)
    frontier = _first_level(chunk, starts, degree, indices)
    unseen ^= frontier
    totals = [0, int(degree[chunk].sum())]
    # A level gathers the neighbour frontiers of each node in rows,
    # targets[firsts[j]:] onward for row j; word w's start at w * targets.size.
    # A flat reduceat, unlike one along an axis, lets go of the GIL.
    rows, targets = np.arange(n), indices
    offsets = (starts + m * np.arange(len(frontier))[:, None]).ravel()
    while True:
        reached = np.bitwise_or.reduceat(
            np.take(frontier, targets, axis=1).ravel(), offsets
        ).reshape(unseen.shape)
        reached &= unseen
        counts = np.bitwise_count(reached).sum(axis=1)
        if not counts.any():
            return totals
        totals.append(int(counts.sum()))
        unseen ^= reached
        if rows.size == n:
            frontier = reached
        else:
            frontier = np.zeros_like(frontier)
            frontier[:, rows] = reached
        if not counts.all():
            unseen, frontier = unseen[counts > 0], frontier[counts > 0]
            offsets = offsets[: unseen.size]
        # Up to the level that finds the most pairs nearly every node is open.
        if rows.size == n and totals[-1] == max(totals):
            continue
        is_open = unseen.any(axis=0)
        if not is_open.any():
            return totals
        if is_open.all() or rows.size == n and 2 * int(degree[is_open].sum()) >= m:
            continue
        targets = targets[np.repeat(is_open, degree[rows])]
        rows, unseen = rows[is_open], unseen[:, is_open]
        firsts = np.cumsum(degree[rows]) - degree[rows]
        offsets = (firsts + targets.size * np.arange(len(unseen))[:, None]).ravel()


def _first_level(
    chunk: np.ndarray, starts: np.ndarray, degree: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Bit i % 64 of word i // 64 at each neighbour of the chunk's i-th node: the
    sweep's level 1 and the triangle count's neighbour bits, read from the chunk's
    rows, one slice of *indices*. ``Network`` admits no edge twice, so a node's
    bits are distinct and adding them ORs them.
    """
    n = starts.size
    frontier = np.zeros(((chunk.size + 63) // 64, n), dtype=np.uint64)
    flat = np.repeat(np.arange(chunk.size) // 64 * n, degree[chunk])
    flat += indices[starts[chunk[0]] : starts[chunk[-1]] + degree[chunk[-1]]]
    np.add.at(frontier.reshape(-1), flat, np.repeat(_ONES[: chunk.size], degree[chunk]))
    return frontier


def _unordered(pair_counts: list[int]) -> dict[int, int]:
    # A sweep over every node of a component sees each pair from both ends.
    return {length: count // 2 for length, count in enumerate(pair_counts) if count}


def _mean_length(hist: dict[int, int]) -> float | None:
    total = sum(hist.values())
    if total == 0:
        return None
    return sum(length * count for length, count in hist.items()) / total


def path_length_histogram(net: Network) -> dict[int, int]:
    """Number of connected unordered node pairs at each distance >= 1."""
    _, ends, ordered = _by_component(net)
    return _unordered([a + b for a, b in zip_longest(*_pair_counts(ordered, ends), fillvalue=0)])


def average_path_length(net: Network) -> float:
    """Mean distance over connected unordered pairs."""
    mean = _mean_length(path_length_histogram(net))
    if mean is None:
        raise ValueError("average path length is undefined without connected pairs")
    return mean


def largest_component(net: Network) -> Network:
    if net.n_nodes == 0:
        raise ValueError("empty network has no components")
    labels = component_labels(net.n_nodes, net.edge_u, net.edge_v)
    return net.subgraph(labels == np.argmax(np.bincount(labels)))


def _triangles_per_node(
    net: Network, order: np.ndarray, ends: np.ndarray, ordered: Network
) -> np.ndarray:
    """Triangles at each node of *net*, counted in 512-node chunks of the plan of
    ``_by_component(net)``: bit i of a node's words marks the chunk's node i as a
    neighbour, so an edge's two ANDed end words hold its common neighbours.
    """
    u, v = ordered.edge_u, ordered.edge_v
    common = np.zeros(ordered.n_edges, dtype=np.int64)
    for lo, chunk, starts, rows in _slices(ordered, ends, _CHUNK):
        words = _first_level(chunk, starts, np.diff(starts, append=rows.size), rows)
        # Of the rows' edges, by v, only one whose ends both neighbour the chunk closes a triangle.
        first, last = np.searchsorted(v, [lo, lo + starts.size])
        touched = words.any(axis=0)
        pairs = first + np.flatnonzero(touched[u[first:last] - lo] & touched[v[first:last] - lo])
        both = np.take(words, u[pairs] - lo, axis=1)
        both &= np.take(words, v[pairs] - lo, axis=1)
        common[pairs] += np.bitwise_count(both).sum(axis=0, dtype=np.int64)
    # A node's triangles close over two of its edges each.
    return np.bincount(order[np.append(u, v)], np.tile(common, 2), net.n_nodes).astype(np.int64) // 2


def local_clustering(net: Network) -> np.ndarray:
    """Per-node clustering coefficient; degree < 2 yields 0."""
    return _clustering_coefficients(net.degrees(), _triangles_per_node(net, *_by_component(net)))


def _clustering_coefficients(degrees: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    deg = degrees.astype(np.float64)
    coeff = np.zeros(deg.shape[0], dtype=np.float64)
    eligible = deg >= 2
    d = deg[eligible]
    coeff[eligible] = 2.0 * triangles.astype(np.float64)[eligible] / (d * (d - 1.0))
    return coeff


def average_clustering(net: Network) -> float:
    """Mean of local clustering over all nodes, low-degree nodes included."""
    if net.n_nodes == 0:
        raise ValueError("average clustering is undefined for an empty network")
    return float(local_clustering(net).mean())


def triangle_count(net: Network) -> int:
    return int(_triangles_per_node(net, *_by_component(net)).sum()) // 3


def motif_census_3(net: Network) -> dict[int, int]:
    """Counts of 3-node induced subgraphs keyed by their edge count.

    Closed form from the triangle count, the wedge count W = sum C(d, 2),
    and the edge count: every edge pairs with N-2 third nodes, counting
     1-edge triples once, 2-edge triples twice, 3-edge triples three times.
    """
    if net.n_nodes < 3:
        raise ValueError("3-node census requires at least 3 nodes")
    return _census_from_triangles(net, triangle_count(net))


def _census_from_triangles(net: Network, triangles: int) -> dict[int, int]:
    n = net.n_nodes
    d = net.degrees()
    wedges = int((d * (d - 1) // 2).sum())
    m = net.n_edges
    n3 = triangles
    n2 = wedges - 3 * triangles
    n1 = m * (n - 2) - 2 * n2 - 3 * n3
    n0 = n * (n - 1) * (n - 2) // 6 - n1 - n2 - n3
    return {0: n0, 1: n1, 2: n2, 3: n3}


def heterogeneity_index(net: Network) -> float:
    """Degree-heterogeneity in [0, 1]: 0 for regular graphs, 1 for stars.

    Sum over edges of (du^-1/2 - dv^-1/2)^2, normalized by N - 2*sqrt(N-1).
    """
    n = net.n_nodes
    if n <= 2:
        raise ValueError("heterogeneity index requires at least 3 nodes")
    if net.n_edges == 0:
        return 0.0
    deg = net.degrees().astype(np.float64)
    inv = np.zeros(n, dtype=np.float64)
    positive = deg > 0
    inv[positive] = 1.0 / np.sqrt(deg[positive])
    diffs = inv[net.edge_u] - inv[net.edge_v]
    return float((diffs * diffs).sum() / (n - 2.0 * math.sqrt(n - 1.0)))


def fit_power_law_slope(
    distribution: Mapping[int, float],
    k_min: int = 1,
) -> tuple[float, float]:
    """Least-squares slope of log10 P(k) against log10 k for k >= k_min.

    Zero-probability bins are skipped. Returns (slope, r_squared); a
    distribution P(k) ~ k**gamma comes back with slope ~ gamma.
    """
    points = [
        (k, p) for k, p in distribution.items() if k >= k_min and k > 0 and p > 0
    ]
    if len(points) < 2:
        raise ValueError("power-law fit requires at least 2 usable degree bins")
    x = np.log10([k for k, _ in points])
    y = np.log10([p for _, p in points])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(slope), r_squared


@dataclass(frozen=True)
class MetricsReport:
    """Full topology summary of one network."""

    n_nodes: int
    n_edges: int
    average_degree: float
    average_path_length: float | None
    average_path_length_largest_component: float | None
    largest_component_fraction: float
    average_clustering: float
    heterogeneity: float | None
    degree_distribution: dict[int, float]
    path_length_distribution: dict[int, float]
    clustering_by_degree: dict[int, float]
    motif_census: dict[int, int] | None
    fitted_slope: tuple[float, float] | None = None
    fit_k_min: int | None = None


def compute_metrics(net: Network, fit_k_min: int | None = None) -> MetricsReport:
    """Evaluate every metric on one network.

    Metrics that are undefined for the given size (paths without connected
    pairs, heterogeneity below 3 nodes, the 3-node census below 3 nodes)
    come back as None rather than failing. ``fit_k_min`` additionally fits a
    power-law slope to the degree distribution.
    """
    if net.n_nodes == 0:
        raise ValueError("metrics are undefined for an empty network")
    order, ends, ordered = _by_component(net)
    giant_counts, rest_counts = _pair_counts(ordered, ends)
    hist = _unordered([a + b for a, b in zip_longest(giant_counts, rest_counts, fillvalue=0)])
    total_pairs = sum(hist.values())
    deg_dist = degree_distribution(net)
    triangles = _triangles_per_node(net, order, ends, ordered)
    degrees = net.degrees()
    coeff = _clustering_coefficients(degrees, triangles)
    return MetricsReport(
        n_nodes=net.n_nodes,
        n_edges=net.n_edges,
        average_degree=average_degree(net),
        average_path_length=_mean_length(hist),
        average_path_length_largest_component=_mean_length(_unordered(giant_counts)),
        largest_component_fraction=max(int(ends[0]), 1) / net.n_nodes,  # 1 without edges
        average_clustering=float(coeff.mean()),
        heterogeneity=heterogeneity_index(net) if net.n_nodes > 2 else None,
        degree_distribution=deg_dist,
        path_length_distribution={l: c / total_pairs for l, c in hist.items()},
        clustering_by_degree={k: float(coeff[degrees == k].mean()) for k in deg_dist},
        motif_census=(
            _census_from_triangles(net, int(triangles.sum()) // 3) if net.n_nodes >= 3 else None
        ),
        fitted_slope=None if fit_k_min is None else fit_power_law_slope(deg_dist, fit_k_min),
        fit_k_min=fit_k_min,
    )
