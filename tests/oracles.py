"""Reference routes and invariant checks the fast code is checked against; test-only."""

from __future__ import annotations

from collections import deque

import numpy as np

from snmodel.network import INITIAL, Network


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
    if net.provenance is not None and len(net.provenance) != net.n_nodes:
        raise AssertionError("provenance length mismatch")


def checkpoint_rows(net: Network, interval: int) -> list[tuple[int, int, int]]:
    """(node count, edge count, attempt count) of a grown network at every multiple of *interval*.

    Growth adds each node with its edges to earlier nodes, so the network at n
    nodes held the edges with v < n, and node n - 1 was accepted at the
    attempt its provenance records. Sizes below the initial structures' count
    never occurred.
    """
    first = sum(origin.edit == INITIAL for origin in net.provenance)
    return [
        (n, int(np.searchsorted(net.edge_v, n)), net.provenance[n - 1].iteration)
        for n in range(first, net.n_nodes + 1)
        if n % interval == 0
    ]
