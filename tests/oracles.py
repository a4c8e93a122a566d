"""Reference routes and invariant checks the fast code is checked against; test-only."""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np

from snmodel.growth import INCREMENTAL, Instance, grow_incremental
from snmodel.network import Network


def shortest_path_lengths_bfs(net: Network, source: int) -> dict[int, int]:
    """Plain BFS from one node; reference route for the bit-parallel sweep."""
    adjacency: list[list[int]] = [[] for _ in range(net.n_nodes)]
    for u, v in net.edge_pairs():
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
        at_n, trace = grow_incremental(
            replace(instance, target_nodes=n, max_attempts=instance.attempt_budget)
        )
        prefix = net.induced_prefix(n)
        assert at_n.structures == prefix.structures, f"structures differ at {n} nodes"
        assert np.array_equal(at_n.edge_u, prefix.edge_u), f"edges differ at {n} nodes"
        assert np.array_equal(at_n.edge_v, prefix.edge_v), f"edges differ at {n} nodes"
        rows.append((n, prefix.n_edges, trace.attempts))
    return rows
