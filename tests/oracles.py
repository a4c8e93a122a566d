"""Reference routes the fast code is checked against; test-only."""

from __future__ import annotations

from collections import deque

from snmodel.network import Network


def shortest_path_lengths_bfs(net: Network, source: int) -> dict[int, int]:
    """Plain BFS from one node; reference route for the bit-parallel sweep."""
    adjacency = [net.neighbors(i) for i in range(net.n_nodes)]
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
