"""Degree-preferential growth baseline.

Starts from a complete clique and attaches each new node to a fixed number
of distinct existing nodes, chosen with probability proportional to their
degree at the moment the new node arrives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat

from .network import Network
from .structures import below


@dataclass(frozen=True)
class BAParams:
    """Parameters of one preferential-attachment run."""

    target_nodes: int
    initial_clique: int = 6
    edges_per_node: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_clique < 2:
            raise ValueError("initial_clique must be >= 2")
        if not 1 <= self.edges_per_node <= self.initial_clique:
            raise ValueError("edges_per_node must be in [1, initial_clique]")
        if self.target_nodes < self.initial_clique:
            raise ValueError("target_nodes must be >= initial_clique")
        if self.seed < 0:  # random.Random(-s) is Random(s): it would repeat a network
            raise ValueError("seed must be >= 0")


def grow_ba(params: BAParams) -> Network:
    """Grow a preferential-attachment network.

    The first ``initial_clique`` nodes form a complete graph. Each later node
    picks ``edges_per_node`` distinct targets by repeatedly sampling from a
    list holding every node once per unit of degree, frozen before the new
    node's edges are added. Edge count is exactly
    C(initial_clique, 2) + edges_per_node * (target_nodes - initial_clique).
    """
    bits = random.Random(params.seed).getrandbits
    c = params.initial_clique
    m = params.edges_per_node

    edges_u: list[int] = []
    edges_v: list[int] = []
    # One entry per endpoint; sampling from it is degree-proportional.
    repeated: list[int] = []
    for i in range(c):
        for j in range(i + 1, c):
            edges_u.append(i)
            edges_v.append(j)
            repeated.append(i)
            repeated.append(j)

    for new in range(c, params.target_nodes):
        pool_size = len(repeated)
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[below(bits, pool_size)])
        for t in sorted(targets):
            edges_u.append(t)
            edges_v.append(new)
            repeated.append(t)
            repeated.append(new)

    return Network(repeat(None, params.target_nodes), edges_u, edges_v)
