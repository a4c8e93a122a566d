"""Growth of structured-node networks: incremental, batch variant, and pruning.

The growth loop derives a candidate structure from a randomly chosen template,
rejects duplicates and candidates that would be isolated, and otherwise adds
the node together with every edge allowed by the distance rule. Distances are
static, so the insertion-time neighbour search against all existing nodes
determines the complete pairwise edge relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .distance import DistanceConfig
from .network import INITIAL, Network, NodeOrigin
from .structures import (
    DEFAULT_MAX_LENGTH,
    Alphabet,
    EditProbabilities,
    apply_random_edit,
)

INCREMENTAL = "incremental"
BATCH = "batch"

#: max_attempts defaults to this multiple of target_nodes.
DEFAULT_ATTEMPT_FACTOR = 50


@dataclass(frozen=True)
class Instance:
    """Complete parameter set of one growth run."""

    alphabet: Alphabet
    initial_structures: tuple[str, ...]
    probs: EditProbabilities
    distance: DistanceConfig
    target_nodes: int
    max_attempts: int | None = None
    mode: str = INCREMENTAL
    prune_min_degree: int = 0
    seed: int = 0
    max_structure_length: int = DEFAULT_MAX_LENGTH

    def __post_init__(self) -> None:
        if not self.initial_structures:
            raise ValueError("Instance requires at least one initial structure")
        if len(set(self.initial_structures)) != len(self.initial_structures):
            raise ValueError("initial structures must be pairwise distinct")
        for word in self.initial_structures:
            self.alphabet.validate_word(word)
        if self.target_nodes < len(self.initial_structures):
            raise ValueError("target_nodes must be >= number of initial structures")
        if self.max_attempts is not None and self.max_attempts < self.target_nodes:
            raise ValueError("max_attempts must be >= target_nodes")
        if self.mode not in (INCREMENTAL, BATCH):
            raise ValueError(f"mode must be '{INCREMENTAL}' or '{BATCH}', got {self.mode!r}")
        if self.prune_min_degree < 0:
            raise ValueError("prune_min_degree must be >= 0")
        if self.probs.mutate > 0 and len(self.alphabet) < 2:
            raise ValueError("mutation requires an alphabet of size >= 2")
        if self.distance.match_table is not None:
            for sym in self.distance.match_table.alphabet.symbols:
                if sym not in self.alphabet:
                    raise ValueError("match table uses symbols outside the alphabet")

    @property
    def attempt_budget(self) -> int:
        if self.max_attempts is not None:
            return self.max_attempts
        return DEFAULT_ATTEMPT_FACTOR * self.target_nodes


@dataclass
class GrowthTrace:
    """Bookkeeping of one growth run."""

    attempts: int = 0
    accepted: int = 0
    rejected_duplicate: int = 0
    rejected_isolated: int = 0
    rejected_edit_failed: int = 0
    saturated: bool = False
    checkpoints: list[tuple[int, int, int]] = field(default_factory=list)


def _resized(a: np.ndarray, shape: tuple[int, ...], fill: int) -> np.ndarray:
    """*a* copied into the leading corner of a *fill*-padded array of *shape*."""
    out = np.full(shape, fill, dtype=a.dtype)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


def _multiset(group: str) -> str:
    return "".join(sorted(group))


class GroupIndex:
    """Neighbour search over indexed structures by multi-index hashing.

    A structure is encoded as the ids of its full symbol groups. A group's id
    is that of its multiset, so equal ids match. Only a group that the match
    table links to a different multiset has an id of its own; its equalities
    (table partners and multiset siblings) form one sorted array of pair
    codes, consulted only when not empty. Structures are rows of one id
    matrix padded with -1, an id no group has, kept with their group counts:
    the distance over g groups is min(count, g) minus the matches.

    Candidates are found with the pigeonhole filter of multi-index hashing
    (Norouzi, Punjani & Fleet, CVPR 2012; Manku, Jain & Das Sarma, WWW 2007).
    With d = max_distance and b = max(1, G0 // (d+1)) for the group count G0
    of the first appended structure, two structures that both have at least
    (d+1)*b groups and lie within distance d agree in every group of at
    least one of their first d+1 blocks of b groups. Each such structure is
    hashed under its d+1 block keys; shorter ones go on a list that every
    search verifies, and a shorter candidate is verified against everything.
    A key holds the groups' canonical ids: the group's multiset, merged into
    one class with every multiset the match table links it to. The table
    relation is not transitive, so keys may over-match; verification against
    the exact relation removes the extras.
    """

    _PAD = -1

    def __init__(self, cfg: DistanceConfig, capacity: int = 64) -> None:
        self._unit = cfg.unit_distance
        self._max_d = cfg.max_distance
        entries = cfg.match_table.entries if cfg.match_table is not None else {}
        # Entries whose two sides share a multiset add nothing.
        links = [(g, p) for g in entries for p in entries[g] if _multiset(p) != _multiset(g)]
        self._class_of = self._table_classes(links)
        self._ids: dict[tuple[str, str], int] = {}
        self._canonical = np.full(8, -1, dtype=np.int32)  # per id, for the keys
        # A linked group has an id of its own; pair codes say what it equals.
        linked = sorted({group for link in links for group in link})
        self._group_ids = {group: self._id(_multiset(group), group) for group in linked}
        pairs = {(self._group_ids[group], self._group_ids[partner]) for group, partner in links}
        for group in linked:
            key, gid = _multiset(group), self._group_ids[group]
            siblings = [self._group_ids[other] for other in linked if _multiset(other) == key]
            pairs.update((gid, other) for other in siblings + [self._id(key)])
        codes = sorted({a << 32 | b for pair in pairs for a, b in (pair, pair[::-1])})
        self._pairs = np.array(codes, dtype=np.int64)
        self._rows = np.full((max(capacity, 16), 1), self._PAD, dtype=np.int32)
        self._counts = np.zeros(self._rows.shape[0], dtype=np.int32)
        self._n = 0
        self._block = 0  # b; fixed by the first append
        # One bucket dict per block, made by the first hashed append: only a
        # structure with at least max_distance + 1 groups is ever hashed.
        self._buckets: list[dict[bytes, list[int]]] = []
        self._short: list[int] = []

    @staticmethod
    def _table_classes(links: list[tuple[str, str]]) -> dict[str, str]:
        """Union-find over the multisets the match table links: multiset -> root."""
        parent: dict[str, str] = {}

        def find(key: str) -> str:
            root = parent.setdefault(key, key)
            while root != parent[root]:
                root = parent[root]
            while parent[key] != root:
                parent[key], key = root, parent[key]
            return root

        for group, partner in links:
            parent[find(_multiset(partner))] = find(_multiset(group))
        return {key: find(key) for key in parent}

    def _id(self, key: str, group: str = "") -> int:
        """The id of multiset *key*, or of its *group* that the table links."""
        gid = self._ids.get((key, group))
        if gid is None:
            gid = self._ids[key, group] = len(self._ids)
            if gid >= self._canonical.shape[0]:
                self._canonical = _resized(self._canonical, (2 * gid,), -1)
            # The canonical id is that of the multiset rooting the table class.
            root = self._id(self._class_of.get(key, key))
            self._canonical[gid] = root
        return gid

    def encode(self, word: str) -> np.ndarray:
        unit = self._unit
        n_groups = len(word) // unit
        ids = np.empty(n_groups, dtype=np.int32)
        for i in range(n_groups):
            group = word[i * unit : (i + 1) * unit]
            gid = self._group_ids.get(group)
            if gid is None:
                gid = self._group_ids[group] = self._id(_multiset(group))
            ids[i] = gid
        return ids

    def _keys(self, encoded: np.ndarray) -> list[bytes] | None:
        """The block keys of *encoded*, or None when it is too short to hash."""
        n_blocks, block = self._max_d + 1, self._block
        if encoded.shape[0] < n_blocks * block:
            return None
        canonical = self._canonical[encoded[: n_blocks * block]].reshape(n_blocks, block)
        return [key.tobytes() for key in canonical]

    def append(self, encoded: np.ndarray) -> None:
        if self._n == 0:
            self._block = max(1, encoded.shape[0] // (self._max_d + 1))
        capacity, width = self._rows.shape
        if self._n >= capacity or encoded.shape[0] > width:
            if self._n >= capacity:
                capacity *= 2
            if encoded.shape[0] > width:
                width = max(encoded.shape[0], 2 * width)
            self._rows = _resized(self._rows, (capacity, width), self._PAD)
            self._counts = _resized(self._counts, (capacity,), 0)
        self._rows[self._n, : encoded.shape[0]] = encoded
        self._counts[self._n] = encoded.shape[0]
        keys = self._keys(encoded)
        if keys is None:
            self._short.append(self._n)
        else:
            if not self._buckets:
                self._buckets = [{} for _ in keys]
            for bucket, key in zip(self._buckets, keys):
                bucket.setdefault(key, []).append(self._n)
        self._n += 1

    def _verify(self, encoded: np.ndarray, idx: np.ndarray | slice) -> np.ndarray:
        """Distance from the encoded candidate to the indexed structures *idx*."""
        g = min(encoded.shape[0], self._rows.shape[1])
        rows = self._rows[idx, :g]
        matches = rows == encoded[:g]
        if self._pairs.size:
            matches |= np.isin(rows.astype(np.int64) << 32 | encoded[:g], self._pairs)
        counts = np.minimum(self._counts[idx], g)
        return (counts - np.count_nonzero(matches, axis=1)).astype(np.int32)

    def distances(self, encoded: np.ndarray) -> np.ndarray:
        """Distance from the encoded candidate to every indexed structure."""
        return self._verify(encoded, slice(0, self._n))

    def neighbours(self, encoded: np.ndarray) -> np.ndarray:
        """Sorted indices of the indexed structures within max_distance."""
        if self._n == 0:
            return np.zeros(0, dtype=np.int64)
        keys = self._keys(encoded)
        if keys is None:
            return np.flatnonzero(self.distances(encoded) <= self._max_d)
        hits = set(self._short)
        for bucket, key in zip(self._buckets, keys):
            hits.update(bucket.get(key, ()))
        idx = np.array(sorted(hits), dtype=np.int64)
        return idx[self._verify(encoded, idx) <= self._max_d]


def _network_from_adjacency(
    structures: list[str],
    neighbor_arrays: list[np.ndarray],
    provenance: list[NodeOrigin],
    flags: set[str],
) -> Network:
    if neighbor_arrays:
        counts = [a.shape[0] for a in neighbor_arrays]
        edge_u = np.concatenate(neighbor_arrays) if sum(counts) else np.zeros(0, np.int64)
        edge_v = np.repeat(np.arange(len(neighbor_arrays), dtype=np.int64), counts)
    else:
        edge_u = np.zeros(0, np.int64)
        edge_v = np.zeros(0, np.int64)
    return Network(structures, edge_u, edge_v, provenance=provenance, flags=flags)


def grow_incremental(
    instance: Instance,
    rng: random.Random | None = None,
    checkpoint_interval: int = 0,
) -> tuple[Network, GrowthTrace]:
    """Grow a network node by node until target_nodes or the attempt budget.

    Every accepted node is connected to all existing nodes within the
    distance threshold; candidates duplicating an existing structure or
    connecting to nothing are rejected. ``checkpoint_interval > 0`` records a
    (node count, edge count, attempt count) row whenever the node count
    crosses a multiple of the interval.
    """
    rng = random.Random(instance.seed) if rng is None else rng
    index = GroupIndex(instance.distance)
    trace = GrowthTrace()

    structures: list[str] = []
    seen: dict[str, int] = {}
    neighbor_arrays: list[np.ndarray] = []
    provenance: list[NodeOrigin] = []
    n_edges = 0

    for word in instance.initial_structures:
        encoded = index.encode(word)
        neighbors = index.neighbours(encoded)
        neighbor_arrays.append(neighbors)
        n_edges += neighbors.shape[0]
        index.append(encoded)
        seen[word] = len(structures)
        structures.append(word)
        provenance.append(NodeOrigin(None, INITIAL, 0))

    def record_checkpoint() -> None:
        if checkpoint_interval > 0 and len(structures) % checkpoint_interval == 0:
            trace.checkpoints.append((len(structures), n_edges, trace.attempts))

    record_checkpoint()
    budget = instance.attempt_budget
    while len(structures) < instance.target_nodes and trace.attempts < budget:
        trace.attempts += 1
        template = rng.randrange(len(structures))
        word, kind = apply_random_edit(
            structures[template],
            instance.probs,
            instance.alphabet,
            rng,
            instance.max_structure_length,
        )
        if word is None:
            trace.rejected_edit_failed += 1
            continue
        if word in seen:
            trace.rejected_duplicate += 1
            continue
        encoded = index.encode(word)
        neighbors = index.neighbours(encoded)
        if neighbors.shape[0] == 0:
            trace.rejected_isolated += 1
            continue
        neighbor_arrays.append(neighbors)
        n_edges += neighbors.shape[0]
        index.append(encoded)
        seen[word] = len(structures)
        structures.append(word)
        provenance.append(NodeOrigin(template, kind.value, trace.attempts))
        trace.accepted += 1
        record_checkpoint()

    flags = {"growth-ordered"}
    if len(structures) < instance.target_nodes:
        trace.saturated = True
        flags.add("saturated")
    net = _network_from_adjacency(structures, neighbor_arrays, provenance, flags)
    return net, trace


def _edit_space_size(instance: Instance) -> int | None:
    """Distinct words among the initial structures and all their single edits.

    Lists exactly what ``apply_random_edit`` can return for each edit kind
    it can draw, so once that many distinct structures exist every further
    batch draw repeats one. Returns None, without listing, when the edit
    counts (mutate L(A-1), insert (L+1)A, delete L, duplicate L(L+1)/2 per
    initial word of length L over A symbols) exceed the attempt budget, since
    the budget then cannot exhaust the space anyway.
    """
    probs = instance.probs
    # The cumulative thresholds of apply_random_edit; a kind can be drawn
    # when its interval of [0, 1) is not empty.
    up_to_insert = probs.mutate + probs.insert
    up_to_delete = up_to_insert + probs.delete
    mutate, insert = probs.mutate > 0, up_to_insert > probs.mutate
    delete, duplicate = up_to_delete > up_to_insert, up_to_delete < 1.0

    symbols = instance.alphabet.symbols
    n_symbols = len(symbols)
    max_length = instance.max_structure_length
    bound = 0
    for word in instance.initial_structures:
        length = len(word)
        bound += (
            mutate * length * (n_symbols - 1)
            + insert * (length + 1) * n_symbols
            + delete * length
            + duplicate * length * (length + 1) // 2
        )
    if bound > instance.attempt_budget:
        return None

    space = set(instance.initial_structures)
    for word in instance.initial_structures:
        length = len(word)
        if mutate:
            for i in range(length):
                space.update(word[:i] + s + word[i + 1 :] for s in symbols if s != word[i])
        if insert and length + 1 <= max_length:
            for i in range(length + 1):
                space.update(word[:i] + s + word[i:] for s in symbols)
        if delete and length >= 2:
            space.update(word[:i] + word[i + 1 :] for i in range(length))
        if duplicate:
            for start in range(length):
                for end in range(start + 1, min(length, start + max_length - length) + 1):
                    space.add(word[:end] + word[start:end] + word[end:])
    return len(space)


def grow_batch(
    instance: Instance,
    rng: random.Random | None = None,
) -> tuple[Network, GrowthTrace]:
    """Batch variant: derive all structures from the initial ones, then wire.

    Candidate structures are generated by single random edits of uniformly
    chosen *initial* structures until target_nodes distinct structures exist
    or the attempt budget runs out, stopping early once every single edit of
    the initial structures has been drawn. Edges are then computed in one
    pairwise pass and every node left isolated (initial nodes included) is
    removed.
    """
    rng = random.Random(instance.seed) if rng is None else rng
    trace = GrowthTrace()

    structures: list[str] = list(instance.initial_structures)
    seen: set[str] = set(structures)
    n_initial = len(structures)

    budget = instance.attempt_budget
    space_size = _edit_space_size(instance)  # None never equals len(seen)
    while (
        len(structures) < instance.target_nodes
        and trace.attempts < budget
        and len(seen) != space_size
    ):
        trace.attempts += 1
        template = rng.randrange(n_initial)
        word, kind = apply_random_edit(
            instance.initial_structures[template],
            instance.probs,
            instance.alphabet,
            rng,
            instance.max_structure_length,
        )
        if word is None:
            trace.rejected_edit_failed += 1
            continue
        if word in seen:
            trace.rejected_duplicate += 1
            continue
        seen.add(word)
        structures.append(word)
        trace.accepted += 1

    provenance = [NodeOrigin(None, INITIAL, 0) for _ in range(n_initial)]
    provenance += [
        NodeOrigin(None, "batch", 0) for _ in range(len(structures) - n_initial)
    ]

    index = GroupIndex(instance.distance)
    neighbor_arrays: list[np.ndarray] = []
    for word in structures:
        encoded = index.encode(word)
        neighbor_arrays.append(index.neighbours(encoded))
        index.append(encoded)

    net = _network_from_adjacency(structures, neighbor_arrays, provenance, set())
    keep = net.degrees() > 0
    dropped = int(np.count_nonzero(~keep))
    if dropped:
        trace.rejected_isolated += dropped
        net = net.subgraph(keep)

    if len(structures) < instance.target_nodes:
        trace.saturated = True
        net.flags.add("saturated")
    return net, trace


def grow(
    instance: Instance,
    rng: random.Random | None = None,
    checkpoint_interval: int = 0,
) -> tuple[Network, GrowthTrace]:
    """Dispatch on the instance mode."""
    if instance.mode == BATCH:
        return grow_batch(instance, rng)
    return grow_incremental(instance, rng, checkpoint_interval)


def prune_low_degree(net: Network, min_degree: int) -> Network:
    """Remove every node whose degree on *net* is below *min_degree*.

    Single pass: degrees are taken on the input network, so survivors may end
    up with degree below the threshold once their neighbors vanish. The
    edge-iff-within-distance biconditional no longer holds afterwards, which
    the returned network records in its flags.
    """
    if min_degree < 0:
        raise ValueError("min_degree must be >= 0")
    if min_degree == 0:
        return net.subgraph(np.ones(net.n_nodes, dtype=bool))
    pruned = net.subgraph(net.degrees() >= min_degree)
    pruned.flags.add("pruned")
    return pruned
