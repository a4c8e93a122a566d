"""Reference routes and invariant checks the fast code is checked against; test-only."""

from __future__ import annotations

import itertools
import math
import random
import warnings
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from snmodel import structures
from snmodel.distance import DistanceConfig, within_max_distance
from snmodel.fileio import MAX_NODES
from snmodel.growth import BATCH, INCREMENTAL, GrowthTrace, Instance, grow
from snmodel.network import Network
from snmodel.structures import Alphabet, Edit, EditProbabilities, edit_space_size


def edge_pairs(net: Network) -> Iterator[tuple[int, int]]:
    """The edges of *net* as (u, v) pairs, u < v, in its canonical order."""
    for u, v in zip(net.edge_u.tolist(), net.edge_v.tolist()):
        yield u, v


def edge_set(net: Network) -> set[tuple[int, int]]:
    return set(edge_pairs(net))


def from_pairs(n_nodes: int, pairs: Iterable[tuple[int, int]]) -> Network:
    """A structureless network on *n_nodes* nodes with the edges *pairs*."""
    pairs = list(pairs)
    return Network([None] * n_nodes, [p[0] for p in pairs], [p[1] for p in pairs])


def random_network(rng: random.Random, n: int, p: float) -> Network:
    """G(n, p): each of the n(n-1)/2 node pairs is an edge with probability p."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_pairs(n, edges)


def floyd_warshall(net: Network) -> list[list[float]]:
    """All-pairs shortest path lengths; math.inf between components."""
    n = net.n_nodes
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for u, v in edge_pairs(net):
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def census_3_brute_force(net: Network) -> dict[int, int]:
    """Node triples by the number of edges among them, by enumeration."""
    edges = edge_set(net)
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    for a, b, c in itertools.combinations(range(net.n_nodes), 3):
        counts[((a, b) in edges) + ((a, c) in edges) + ((b, c) in edges)] += 1
    return counts


def shortest_path_lengths_bfs(net: Network, source: int) -> dict[int, int]:
    """Plain BFS from one node; reference route for the bit-parallel sweep."""
    adjacency: list[list[int]] = [[] for _ in range(net.n_nodes)]
    for u, v in edge_pairs(net):
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def every_edge_sweep(chunk: np.ndarray, starts: np.ndarray, indices: np.ndarray) -> list[int]:
    """``metrics._sweep``'s per-level totals, with every level over every edge.

    The level oracle: each level, level 1 and the closing level that finds
    nothing included, gathers every node's neighbour frontiers for every
    live word; a word that finds nothing retires.
    """
    n = starts.size
    totals = [0]
    bit = np.arange(chunk.size, dtype=np.uint64)
    seen = np.zeros(((chunk.size + 63) // 64, n), dtype=np.uint64)
    seen[bit // 64, chunk] = np.uint64(1) << (bit % 64)
    frontier = seen.copy()
    offsets = (starts + indices.size * np.arange(len(seen))[:, None]).ravel()
    while True:
        reached = np.bitwise_or.reduceat(
            np.take(frontier, indices, axis=1).ravel(), offsets
        ).reshape(len(seen), n)
        reached &= ~seen
        counts = np.bitwise_count(reached).sum(axis=1)
        if not counts.any():
            return totals
        totals.append(int(counts.sum()))
        seen |= reached
        frontier = reached
        if not counts.all():
            seen, frontier = seen[counts > 0], frontier[counts > 0]
            offsets = offsets[: len(seen) * n]


def parse_edge_list_by_line(text: str) -> Network:
    """``fileio.parse_edge_list`` as one loop that checks each line as it reads it."""
    n_nodes = 0
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "nodes":
                try:
                    count = int(fields[1])
                except ValueError:
                    raise ValueError(f"line {lineno}: malformed node count") from None
                if count < 0:
                    raise ValueError(f"line {lineno}: node count must be >= 0")
                n_nodes = max(n_nodes, count)
                if n_nodes > MAX_NODES:
                    raise ValueError(f"line {lineno}: node count exceeds {MAX_NODES}")
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two ids, got {len(fields)} fields")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: ids must be integers") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: ids must be >= 0")
        if max(u, v) >= MAX_NODES:
            raise ValueError(f"line {lineno}: ids must be below {MAX_NODES}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop on node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.warn(f"line {lineno}: duplicate edge {key}, keeping one")
            continue
        seen.add(key)
        pairs.append(key)
        n_nodes = max(n_nodes, u + 1, v + 1)
    return from_pairs(n_nodes, pairs)


def validate(net: Network) -> None:
    """Check the simple-graph and distinct-structure invariants of *net*."""
    if net.n_edges:
        if int(net.edge_u.min()) < 0 or int(net.edge_v.max()) >= net.n_nodes:
            raise AssertionError("edge endpoint out of range")
        if np.any(net.edge_u == net.edge_v):
            raise AssertionError("self-loop present")
        pairs = set(zip(net.edge_u.tolist(), net.edge_v.tolist()))
        if len(pairs) != net.n_edges:
            raise AssertionError("parallel edge present")
    words = [s for s in net.structures if s is not None]
    if len(set(words)) != len(words):
        raise AssertionError("node structures are not pairwise distinct")


def checkpoint_rows(
    net: Network, instance: Instance, interval: int
) -> list[tuple[int, int, int]]:
    """(node count, edge count, attempt count) at every multiple of *interval*
    of the network that incremental growth of *instance* gave.

    Growth adds each node with its edges to earlier nodes, so the network at n
    nodes held the edges with v < n. Growth to target n under the same budget
    draws the same random stream and stops at the attempt that accepts node
    n, so it gives the attempt count, and its network must be the prefix of
    n nodes. Sizes below the initial structures' count never occurred.
    """
    assert instance.mode == INCREMENTAL, "batch growth has no intermediate networks"
    rows = []
    for n in range(len(instance.initial_structures), net.n_nodes + 1):
        if n % interval:
            continue
        at_n, trace = grow(
            replace(instance, target_nodes=n, max_attempts=instance.attempt_budget)
        )
        prefix = net.induced_prefix(n)
        assert at_n.structures == prefix.structures, f"structures differ at {n} nodes"
        assert np.array_equal(at_n.edge_u, prefix.edge_u), f"edges differ at {n} nodes"
        assert np.array_equal(at_n.edge_v, prefix.edge_v), f"edges differ at {n} nodes"
        rows.append((n, prefix.n_edges, trace.attempts))
    return rows


def reference_edit(
    word: str, probs: EditProbabilities, alphabet: Alphabet, rng: random.Random
) -> tuple[str | None, Edit, int]:
    """One random edit of *word*, drawn by ``rng.random``, ``randrange`` and ``randint``.

    The reference of ``structures.edit_drawer``: the same results from the
    same stream. The kind is the first whose cumulative probability, over
    the total, exceeds ``rng.random()``. A failed edit (nothing to delete,
    one symbol to mutate with, or a result longer than
    ``DEFAULT_MAX_LENGTH``) returns ``(None, kind, 0)``.
    """
    bounds = list(itertools.accumulate((probs.mutate, probs.insert, probs.delete, probs.duplicate)))
    r = rng.random()
    kind = next(kind for kind, bound in zip(Edit, bounds) if r < bound / bounds[-1])
    symbols, n = alphabet.symbols, len(word)
    if kind is Edit.MUTATE:
        if len(symbols) < 2:
            return None, kind, 0
        i = rng.randrange(n)
        others = [symbol for symbol in symbols if symbol != word[i]]
        return word[:i] + others[rng.randrange(len(others))] + word[i + 1 :], kind, i
    if kind is Edit.INSERT:
        if n + 1 > structures.DEFAULT_MAX_LENGTH:
            return None, kind, 0
        i = rng.randrange(n + 1)
        return word[:i] + symbols[rng.randrange(len(symbols))] + word[i:], kind, i
    if kind is Edit.DELETE:
        if n < 2:
            return None, kind, 0
        i = rng.randrange(n)
        return word[:i] + word[i + 1 :], kind, i
    start = rng.randrange(n)
    end = start + rng.randint(1, n - start)
    if n + end - start > structures.DEFAULT_MAX_LENGTH:
        return None, kind, 0
    return word[:end] + word[start:end] + word[end:], kind, end


def matrix_edges(words: list[str], cfg: DistanceConfig) -> list[tuple[int, int]]:
    """Every pair (u, v), u < v, of *words* within max_distance, sorted: the
    edge rule without a match table, as one numpy distance-matrix row per word.

    Each word's full groups become code points, each group's symbols sorted,
    so two groups are equal exactly when they hold the same multiset. A word's
    row counts its unequal groups against every earlier word over the groups
    both have. Nothing here comes from ``GroupIndex``.
    """
    assert not cfg.match_table, "the matrix rule knows no match table"
    unit = cfg.unit_distance
    counts = np.array([len(word) // unit for word in words], dtype=np.int64)
    width = int(counts.max(initial=0))
    points = np.full((len(words), width, unit), -1, dtype=np.int64)
    for i, word in enumerate(words):
        group_points = [ord(symbol) for symbol in word[: counts[i] * unit]]
        points[i, : counts[i]] = np.sort(np.reshape(group_points, (-1, unit)), axis=1)
    # One number per distinct sorted group, so that a group compares at once.
    _, labels = np.unique(points.reshape(-1, unit), axis=0, return_inverse=True)
    labels = labels.reshape(len(words), width)
    columns = np.arange(width)
    edges = []
    for v in range(1, len(words)):
        common = columns < np.minimum(counts[:v], counts[v])[:, None]
        misses = np.count_nonzero((labels[:v] != labels[v]) & common, axis=1)
        edges += [(u, v) for u in np.flatnonzero(misses <= cfg.max_distance).tolist()]
    return sorted(edges)


def replay_growth(instance: Instance) -> tuple[list[str], list[tuple[int, int]], GrowthTrace]:
    """Growth of *instance* replayed on the words themselves: its structures,
    sorted edges and trace.

    The replay draws the random stream growth draws: a template, uniform over
    the structures so far (batch: over the initial ones), then its edit by
    ``reference_edit``. Duplicates are found in the set of words so far, and
    a candidate's isolation is decided by ``within_max_distance``. The edges
    come from ``matrix_edges``, or with a match table from
    ``within_max_distance`` on every pair. Batch growth stops early once
    every single edit of the initial words has been drawn, wires its words
    at the end and drops the isolated ones. Incremental growth by mutation
    alone stops early once it holds every word of the initial lengths.
    """
    rng = random.Random(instance.seed)
    cfg, probs, alphabet = instance.distance, instance.probs, instance.alphabet
    initial, batch = instance.initial_structures, instance.mode == BATCH
    budget = instance.attempt_budget
    if batch:
        space = edit_space_size(initial, probs, alphabet, budget)
    elif not (probs.insert or probs.delete or probs.duplicate):
        # A mutant keeps its length: past these words, every draw is a duplicate.
        space = sum(len(alphabet) ** n for n in {len(word) for word in initial})
    else:
        space = None
    trace = GrowthTrace()
    words, known = list(initial), set(initial)
    while len(words) < instance.target_nodes and trace.attempts < budget and len(words) != space:
        trace.attempts += 1
        pool = initial if batch else words
        template = pool[rng.randrange(len(pool))]
        word, _, _ = reference_edit(template, probs, alphabet, rng)
        if word is None:
            trace.rejected_edit_failed += 1
        elif word in known:
            trace.rejected_duplicate += 1
        # The template is one of the words, and the likeliest neighbour: it goes first.
        elif not batch and not any(within_max_distance(word, w, cfg) for w in (template, *words)):
            trace.rejected_isolated += 1
        else:
            words.append(word)
            known.add(word)
            trace.accepted += 1
    trace.saturated = len(words) < instance.target_nodes
    if cfg.match_table:
        edges = [
            (u, v) for v in range(len(words)) for u in range(v)
            if within_max_distance(words[u], words[v], cfg)
        ]
    else:
        edges = matrix_edges(words, cfg)
    if batch:
        linked = sorted({node for edge in edges for node in edge})
        trace.rejected_isolated += len(words) - len(linked)
        new_id = {old: new for new, old in enumerate(linked)}
        words = [words[i] for i in linked]
        edges = [(new_id[u], new_id[v]) for u, v in edges]
    return words, sorted(edges), trace
