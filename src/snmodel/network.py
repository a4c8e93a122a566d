"""Undirected simple graph with optional per-node structures."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each id of 0..n-1 labelled with the smallest id of its component under
    the pairs (a, b), by min-label hooking and pointer jumping (Shiloach &
    Vishkin, 1982).
    """
    labels = np.arange(n)
    while True:
        la, lb = labels[a], labels[b]
        if np.array_equal(la, lb):
            return labels
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]


class Network:
    """Simple undirected graph; node ids are 0..n-1.

    Edges are stored canonically as two parallel arrays with ``u < v``,
    sorted by ``(v, u)``: each node's earlier neighbours in node order, so
    the network's first n nodes hold ``np.searchsorted(edge_v, n)`` edges.
    ``structures[i]`` is the symbol word of node ``i`` (None for structureless
    graphs such as the preferential-attachment baseline or loaded edge lists).
    A self-loop or an edge given twice, in either direction, is a ValueError.
    Instances are treated as immutable once built; metric helpers cache
    derived views on first use: degrees, and the CSR pair ``(indptr, indices)``.
    """

    def __init__(
        self,
        structures: Iterable[str | None],
        edge_u: np.ndarray | Sequence[int] = (),
        edge_v: np.ndarray | Sequence[int] = (),
    ) -> None:
        self.structures: list[str | None] = list(structures)
        u = np.asarray(edge_u, dtype=np.int64)
        v = np.asarray(edge_v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("edge endpoint arrays must have the same length")
        u, v = np.minimum(u, v), np.maximum(u, v)
        if u.size and (u.min() < 0 or v.max() >= len(self.structures)):
            raise ValueError(f"edge endpoint outside the node ids [0, {len(self.structures)})")
        if np.any(u == v):
            raise ValueError(f"self-loop on node {int(u[u == v][0])}")
        step, rise = np.diff(v), np.diff(u)
        # Prefixes and subgraphs come ordered: they pay for this check, not a sort.
        # The int64 key v * n + u needs n < 3.04e9: a structures list that long takes 24 GB.
        if np.any((step < 0) | (step == 0) & (rise < 0)):
            order = np.argsort(v * len(self.structures) + u)
            u, v = u[order], v[order]
            step, rise = np.diff(v), np.diff(u)
        # Sorted, an edge given twice sits next to itself.
        twice = np.flatnonzero((step == 0) & (rise == 0))
        if twice.size:
            raise ValueError(f"edge ({u[twice[0]]}, {v[twice[0]]}) given twice")
        self.edge_u, self.edge_v = u, v
        self._degrees: np.ndarray | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def __reduce__(self) -> tuple:
        """Pickled as its structures and edges: the cached views are rebuilt on use."""
        return Network, (self.structures, self.edge_u, self.edge_v)

    @property
    def n_nodes(self) -> int:
        return len(self.structures)

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.shape[0])

    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            deg = np.bincount(self.edge_u, minlength=self.n_nodes)
            deg += np.bincount(self.edge_v, minlength=self.n_nodes)
            self._degrees = deg
        return self._degrees

    def to_csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            rows = np.concatenate([self.edge_u, self.edge_v])
            cols = np.concatenate([self.edge_v, self.edge_u])
            indptr = np.concatenate([[0], np.cumsum(self.degrees())])
            self._csr = indptr, cols[np.argsort(rows)]
        return self._csr

    def induced_prefix(self, n: int) -> Network:
        """Subgraph on nodes 0..n-1.

        For networks built by node-at-a-time growth this equals the
        intermediate network at the moment node count reached ``n``, because
        growth never adds edges between two pre-existing nodes.
        """
        if not 0 <= n <= self.n_nodes:
            raise ValueError(f"prefix size {n} out of range")
        m = int(np.searchsorted(self.edge_v, n))
        return Network(self.structures[:n], self.edge_u[:m], self.edge_v[:m])

    def subgraph(self, keep: np.ndarray) -> Network:
        """Induced subgraph on the boolean node mask *keep*; ids are compacted."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != self.n_nodes:
            raise ValueError("mask length must equal n_nodes")
        new_id = np.cumsum(keep) - 1
        edge_mask = keep[self.edge_u] & keep[self.edge_v]
        structures = [s for s, k in zip(self.structures, keep) if k]
        return Network(structures, new_id[self.edge_u[edge_mask]], new_id[self.edge_v[edge_mask]])
