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
is open, without the closing level that finds nothing. ``compute_metrics`` sweeps the giant and
the rest each over its own induced subgraph, so the giant's nodes all close.
Independent work runs on every usable CPU, as Then et al. run independent source
batches: ``_each_on_cpus`` shares more items than CPUs among the calling thread and one
plain thread per further CPU, and runs fewer, or a call made inside an item, on the caller.
A sweep of more than one chunk hands it slices ``_CHUNK // _WORKERS`` sources wide, so
one chunk's words are in flight; compare-ba hands it whole prefix reports, whose sweeps
run whole chunks inline. A sweep of one chunk, or one on a one-CPU host, starts no
thread. No flag sets the count.
Triangles take each chunk's neighbour bits from the sweep's level-1 builder, whose adds
OR because ``Network`` admits no edge twice. Components
come from min-label hooking with pointer jumping (Shiloach & Vishkin, 1982).
``compute_metrics`` sweeps and counts triangles once per report. Tests check
these against plain-Python, Floyd-Warshall, networkx and brute-force oracles.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import zip_longest
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


def _pair_counts(adj: tuple[np.ndarray, np.ndarray]) -> list[int]:
    """Ordered (source, target) pairs at each distance >= 1 over the CSR
    *adj*, from every node with a neighbour; entry 0 is 0.

    More than one chunk of sources is split into slices of whole words,
    ``_CHUNK // _WORKERS`` sources wide, that ``_each_on_cpus`` sweeps, so
    one chunk's words are in flight; inside an item of ``_each_on_cpus``,
    where the slices would run inline, into whole chunks. A slice is a range
    of the renumbered nodes, so its rows are one slice of *indices*. Level
    totals are Python ints, so the sum is the same for any split.
    """
    indptr, indices = adj
    # A node without neighbours reaches nothing and nothing reaches it, so
    # only the others are swept, renumbered 0..n-1. reduceat then sees no
    # empty segment, for which it would return the first element, not 0.
    linked = np.diff(indptr) > 0
    renumber = np.cumsum(linked) - 1
    indices = renumber[indices]
    starts = indptr[:-1][linked]
    sources = np.arange(starts.size)
    shared = sources.size > _CHUNK and not getattr(_in_item, "active", False)
    width = _CHUNK // (_WORKERS if shared else 1) // 64 * 64
    slices = [sources[first : first + width] for first in range(0, sources.size, width)]
    per_slice = _each_on_cpus(lambda chunk: _sweep(chunk, starts, indices), slices)
    return [sum(level) for level in zip_longest(*per_slice, fillvalue=0)] or [0]


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
    return _unordered(_pair_counts(net.to_csr()))


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


def _triangles_per_node(net: Network) -> np.ndarray:
    """Triangles at each node: bit i of a node's words marks the chunk's node i
    as a neighbour, so an edge's two ANDed end words hold its common neighbours.
    """
    n, u, v = net.n_nodes, net.edge_u, net.edge_v
    indptr, indices = net.to_csr()
    starts, degree = indptr[:-1], np.diff(indptr)
    common = np.zeros(net.n_edges, dtype=np.int64)
    for first in range(0, n, _CHUNK):
        words = _first_level(np.arange(first, min(first + _CHUNK, n)), starts, degree, indices)
        # Only an edge whose ends both neighbour the chunk closes a triangle in it.
        touched = words.any(axis=0)
        pairs = np.flatnonzero(touched[u] & touched[v])
        both = np.take(words, u[pairs], axis=1)
        both &= np.take(words, v[pairs], axis=1)
        common[pairs] += np.bitwise_count(both).sum(axis=0, dtype=np.int64)
    # A node's triangles close over two of its edges each.
    return np.bincount(np.concatenate([u, v]), np.tile(common, 2), n).astype(np.int64) // 2


def local_clustering(net: Network) -> np.ndarray:
    """Per-node clustering coefficient; degree < 2 yields 0."""
    return _clustering_coefficients(net.degrees(), _triangles_per_node(net))


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


def _mean_by_degree(degrees: np.ndarray, coeff: np.ndarray) -> dict[int, float]:
    # A stable sort keeps each degree's coefficients in node order, the order
    # coeff[degrees == k].mean() sums them in, so the means are the same floats.
    grouped = coeff[np.argsort(degrees, kind="stable")]
    sizes = np.bincount(degrees)
    ends = np.cumsum(sizes).tolist()
    return {
        k: float(np.add.reduce(grouped[ends[k] - sizes[k] : ends[k]])) / int(sizes[k])
        for k in np.flatnonzero(sizes).tolist()
    }


def triangle_count(net: Network) -> int:
    return int(_triangles_per_node(net).sum()) // 3


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
    labels = component_labels(net.n_nodes, net.edge_u, net.edge_v)
    sizes = np.bincount(labels)
    # Same giant as largest_component. Components are closed under
    # shortest paths, so the giant's subgraph gives its histogram, and the
    # rest's adds the rest of the full network's.
    in_giant = labels == np.argmax(sizes)
    if in_giant.all():
        giant_counts, rest_counts = _pair_counts(net.to_csr()), [0]
    else:
        giant_counts = _pair_counts(net.subgraph(in_giant).to_csr())
        rest_counts = _pair_counts(net.subgraph(~in_giant).to_csr())
    hist = _unordered([a + b for a, b in zip_longest(giant_counts, rest_counts, fillvalue=0)])
    apl = _mean_length(hist)
    total_pairs = sum(hist.values())
    pl_dist = {l: c / total_pairs for l, c in hist.items()}
    apl_giant = _mean_length(_unordered(giant_counts))

    deg_dist = degree_distribution(net)
    fitted: tuple[float, float] | None = None
    if fit_k_min is not None:
        fitted = fit_power_law_slope(deg_dist, fit_k_min)

    triangles = _triangles_per_node(net)
    coeff = _clustering_coefficients(net.degrees(), triangles)
    return MetricsReport(
        n_nodes=net.n_nodes,
        n_edges=net.n_edges,
        average_degree=average_degree(net),
        average_path_length=apl,
        average_path_length_largest_component=apl_giant,
        largest_component_fraction=int(sizes.max()) / net.n_nodes,
        average_clustering=float(coeff.mean()),
        heterogeneity=heterogeneity_index(net) if net.n_nodes > 2 else None,
        degree_distribution=deg_dist,
        path_length_distribution=pl_dist,
        clustering_by_degree=_mean_by_degree(net.degrees(), coeff),
        motif_census=(
            _census_from_triangles(net, int(triangles.sum()) // 3) if net.n_nodes >= 3 else None
        ),
        fitted_slope=fitted,
        fit_k_min=fit_k_min,
    )
