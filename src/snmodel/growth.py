"""Growth of structured-node networks, incremental or batch, and pruning.

The growth loop derives a candidate structure from a randomly chosen template
and rejects duplicates and, in incremental mode, candidates that would be
isolated. The edit reports where the word starts to change, so the candidate's
group ids come from its template's row: a mutation replaces at most one id,
any other edit re-encodes only the suffix from the group it starts in and
compares it with the template's. So the distance to the template is known:
exact, or at most 1 for a mutant. A candidate within max_distance of its
template has a neighbour already; only one further away is searched for a
neighbour, by a scan over every structure, the template included. Distances
are static, so the edge relation depends on the accepted structures alone:
once the loop ends, one pairwise join over them yields every edge, the same
edges an insertion-time search would have added.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .distance import DistanceConfig
from .network import Network, component_labels
from .structures import Alphabet, EditProbabilities, apply_random_edit, edit_space_size

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
        for group in self.distance.match_table or {}:
            if any(sym not in self.alphabet for sym in group):
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


def _resized(a: np.ndarray, shape: tuple[int, ...], fill: int) -> np.ndarray:
    """*a* copied into the leading corner of a *fill*-padded array of *shape*."""
    out = np.full(shape, fill, dtype=a.dtype)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


def _multiset(group: str) -> str:
    return "".join(sorted(group))


class GroupIndex:
    """Exact distance queries and the pairwise distance join over structures.

    A structure is encoded as the ids of its full symbol groups. A group's id
    is that of its multiset, so equal ids match. Only a group that the match
    table links to a different multiset has an id of its own: the L linked
    groups take ids 0..L-1 and the multisets the ids from L on. A linked
    group's equalities (table partners, multiset siblings and its multiset)
    form one sorted array of pair codes, the only copy of the table
    relation, consulted only when not empty. Structures are rows of one id
    matrix padded with -1, an id no group has, kept with their group counts:
    the distance over g groups is min(count, g) minus the matches.

    ``derive`` builds the row of one edit of an indexed structure from that
    structure's row, re-encoding only the groups the edit may have changed,
    and returns its distance to that structure.
    The index starts with the rows of the words it is given; ``append``
    stores one more row and its count. ``distances`` answers one
    query by a scan over every row. ``join`` returns every pair within
    d = max_distance at once, as a partition-based exact join (Arasu, Ganti &
    Kaushik, VLDB 2006) on the pigeonhole filter of multi-index hashing
    (Norouzi, Punjani & Fleet, CVPR 2012; Manku, Jain & Das Sarma, WWW 2007).
    With b = max(1, G0 // (d+1)), set at join time from the group count G0
    of row 0, two structures that both have at least (d+1)*b groups and lie
    within distance d agree in every group of at least one of their first
    d+1 blocks of b groups. A block key holds the groups' labels: the
    connected components of the pair codes, so equal groups share a label.
    The table relation is not transitive, so keys may over-match;
    verification against the exact relation removes the extras. Per block,
    the rows are grouped by a hash of their key, the pairs inside each group
    are verified in bounded chunks, and a pair an earlier block already
    grouped together is dropped, so each pair is verified once. A structure
    with fewer groups is short: it is verified against every other one.
    """

    _PAD = -1
    #: Candidate pairs the join verifies at once: bounds its memory.
    _CHUNK = 8192
    #: Groups compared per step when verifying the join's pairs.
    _SLAB = 32
    #: Odd multiplier of the block-key hash (the golden ratio in 64 bits).
    _MIX = np.uint64(0x9E3779B97F4A7C15)
    #: Rows allocated up front; the id matrix doubles whenever it is full.
    _CAPACITY = 64

    def __init__(self, cfg: DistanceConfig, words: Iterable[str]) -> None:
        self._unit = cfg.unit_distance
        self._max_d = cfg.max_distance
        table = cfg.match_table or {}
        links = [(group, partner) for group in table for partner in table[group]]
        # A linked group has an id of its own, 0..L-1; pair codes say what it equals.
        linked = sorted({group for link in links for group in link})
        self._group_ids = {group: gid for gid, group in enumerate(linked)}
        self._n_linked = len(linked)
        self._multiset_ids: dict[str, int] = {}
        pairs = {(self._group_ids[group], self._group_ids[partner]) for group, partner in links}
        for group in linked:
            key, gid = _multiset(group), self._group_ids[group]
            siblings = [self._group_ids[other] for other in linked if _multiset(other) == key]
            pairs.update((gid, other) for other in siblings + [self._multiset_id(key)])
        codes = sorted({a << 32 | b for pair in pairs for a, b in (pair, pair[::-1])})
        self._pairs = np.array(codes, dtype=np.int64)
        self._rows = np.full((self._CAPACITY, 1), self._PAD, dtype=np.int32)
        self._counts = np.zeros(self._rows.shape[0], dtype=np.int32)
        self._n = 0
        for word in words:
            self.append(self.encode(word))

    def _multiset_id(self, key: str) -> int:
        """The id of multiset *key*; multisets take the ids from L on."""
        return self._multiset_ids.setdefault(key, self._n_linked + len(self._multiset_ids))

    def _group_id(self, group: str) -> int:
        """The id of one symbol group: its multiset's, unless the table links it."""
        gid = self._group_ids.get(group)
        if gid is None:
            gid = self._group_ids[group] = self._multiset_id(_multiset(group))
        return gid

    def encode(self, word: str) -> np.ndarray:
        """The ids of the full symbol groups of *word*."""
        unit = self._unit
        ids = np.empty(len(word) // unit, dtype=np.int32)
        for i in range(ids.shape[0]):
            ids[i] = self._group_id(word[i * unit : (i + 1) * unit])
        return ids

    def derive(
        self, template: int, word: str, at: int, same_length: bool
    ) -> tuple[np.ndarray, int]:
        """The ids of *word*, one edit of indexed structure *template*, and its distance.

        *word* agrees with the template's word before position *at* and, when
        *same_length* (a mutation), after it too. The groups before the one
        holding *at* keep the template's ids, which match. A mutation
        replaces that one group's id, or none in the trailing partial group,
        and its distance is bounded by the groups replaced, 1 or 0. Any
        other edit re-encodes the suffix from that group on, and its distance
        is exact: the suffix's misses against the template's row from there.
        """
        unit = self._unit
        k = at // unit
        template_row = self._rows[template, : self._counts[template]]
        if same_length:
            row = template_row.copy()
            if k == row.shape[0]:  # the trailing partial group, in no id
                return row, 0
            row[k] = self._group_id(word[k * unit : (k + 1) * unit])
            return row, 1
        suffix = self.encode(word[k * unit :])
        g = min(suffix.shape[0], template_row.shape[0] - k)
        matches = self._matches(template_row[k : k + g], suffix[:g])
        return np.concatenate((template_row[:k], suffix)), g - np.count_nonzero(matches)

    def append(self, encoded: np.ndarray) -> None:
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
        self._n += 1

    def _matches(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Where the group ids *a* and *b* name equal groups; a pad equals no group."""
        matches = a == b
        if self._pairs.size:
            matches |= np.isin(a.astype(np.int64) << 32 | b, self._pairs)
        return matches

    def distances(self, encoded: np.ndarray) -> np.ndarray:
        """Distance from the encoded candidate to every indexed structure."""
        g = min(encoded.shape[0], self._rows.shape[1])
        matches = self._matches(self._rows[: self._n, :g], encoded[:g])
        counts = np.minimum(self._counts[: self._n], g)
        return (counts - np.count_nonzero(matches, axis=1)).astype(np.int32)

    def join(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (u, v), u < v, of indexed structures within max_distance.

        Returns the int64 arrays u and v, each pair once, in no fixed order.
        """
        n, max_d = self._n, self._max_d
        counts = self._counts[:n]
        rows = self._rows[:n, : int(counts.max()) if n else 0]
        b = max(1, int(counts[0]) // (max_d + 1)) if n else 1
        short = counts < (max_d + 1) * b
        nodes = np.arange(n)
        # Seeded empty, so a join that finds no pair returns empty int64 arrays.
        found: list[tuple[np.ndarray, np.ndarray]] = [(nodes[:0], nodes[:0])]
        # A short structure is verified against all others; two short ones once.
        for s in np.flatnonzero(short):
            dist = self.distances(rows[s, : counts[s]])
            others = np.flatnonzero((dist <= max_d) & ((nodes > s) | ~short & (nodes < s)))
            found.append((np.minimum(others, s), np.maximum(others, s)))
        hashed = np.flatnonzero(~short)
        if hashed.shape[0] > 1:
            labels = self._key_labels()
            keys: list[np.ndarray] = []
            for k in range(max_d + 1):
                key = np.zeros(hashed.shape[0], dtype=np.uint64)
                for col in range(k * b, (k + 1) * b):
                    key = key * self._MIX + labels[rows[hashed, col]].astype(np.uint64)
                for a, c in self._equal_key_pairs(key, self._CHUNK):
                    # A pair whose key hash agrees in an earlier block was verified there.
                    for earlier in keys:
                        keep = earlier[a] != earlier[c]
                        a, c = a[keep], c[keep]
                    u, v = hashed[a], hashed[c]
                    close = self._close(rows, counts, u, v)
                    found.append((u[close], v[close]))
                keys.append(key)
        return np.concatenate([u for u, _ in found]), np.concatenate([v for _, v in found])

    def _key_labels(self) -> np.ndarray:
        """Per id, the smallest id of its connected component in the pair codes."""
        n = self._n_linked + len(self._multiset_ids)
        return component_labels(n, self._pairs >> 32, self._pairs & 0xFFFFFFFF)

    def _close(
        self, rows: np.ndarray, counts: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Positions of the pairs (u, v) of *rows* that lie within max_distance.

        The groups are compared a slab at a time, so a chunk's memory does
        not grow with the structures' length, and a pair leaves as soon as
        its misses exceed max_distance: most candidate pairs of long
        structures differ early.
        """
        common = np.minimum(counts[u], counts[v])
        matched = np.zeros(u.shape[0], dtype=np.int32)
        live = np.arange(u.shape[0])
        for lo in range(0, rows.shape[1], self._SLAB):
            hi = lo + self._SLAB
            ru = rows[u[live], lo:hi]
            matches = self._matches(ru, rows[v[live], lo:hi]) & (ru != self._PAD)
            matched[live] += np.count_nonzero(matches, axis=1)
            # Every common group before hi that did not match is a miss.
            live = live[np.minimum(common[live], hi) - matched[live] <= self._max_d]
        return live

    @staticmethod
    def _equal_key_pairs(key: np.ndarray, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Chunks of about *chunk* position pairs (a, c), a < c, with equal *key*."""
        n = key.shape[0]
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        ends = np.r_[starts[1:], n]
        # Each sorted position pairs with the later positions of its run.
        later = np.repeat(ends, ends - starts) - np.arange(n) - 1
        total = np.cumsum(later)
        t0, done = 0, 0
        while done < total[-1]:
            t1 = max(t0 + 1, int(np.searchsorted(total, done + chunk, side="right")))
            per = later[t0:t1]
            first = np.repeat(np.arange(t0, t1), per)
            offset = np.arange(first.shape[0]) - np.repeat(total[t0:t1] - per - done, per)
            second = first + 1 + offset
            # order is increasing within a run, so the first of a pair is the smaller.
            yield order[first], order[second]
            t0, done = t1, int(total[t1 - 1])


def grow(instance: Instance) -> tuple[Network, GrowthTrace]:
    """Grow a network from the instance's initial structures.

    Each attempt edits a uniformly chosen template once; a failed edit or a
    duplicate structure is rejected. Incremental growth draws the template
    from every structure so far and rejects a candidate that would connect
    to nothing, so the network at n nodes is the induced prefix of n nodes.
    Batch growth draws it from the initial structures, tests no isolation,
    stops once it has drawn every single edit of them, and after wiring
    drops every isolated node, initial ones included. Both stop at
    target_nodes or when the attempt budget runs out.
    """
    rng = random.Random(instance.seed)
    trace = GrowthTrace()
    initial = instance.initial_structures
    structures = list(initial)
    seen = set(structures)
    index = GroupIndex(instance.distance, structures)

    batch = instance.mode == BATCH
    max_distance = instance.distance.max_distance
    budget = instance.attempt_budget
    # A space larger than the budget is not listed: None never equals a count.
    space_size = None
    if batch:
        space_size = edit_space_size(initial, instance.probs, instance.alphabet, budget)
    while (
        len(structures) < instance.target_nodes
        and trace.attempts < budget
        and len(structures) != space_size
    ):
        trace.attempts += 1
        template = rng.randrange(len(initial) if batch else len(structures))
        template_word = structures[template]
        word, _, at = apply_random_edit(template_word, instance.probs, instance.alphabet, rng)
        if word is None:
            trace.rejected_edit_failed += 1
            continue
        if word in seen:
            trace.rejected_duplicate += 1
            continue
        encoded, distance = index.derive(template, word, at, len(word) == len(template_word))
        # A candidate within reach of its template has a neighbour already;
        # only one further away needs a search, which scans the template too.
        if (
            not batch
            and distance > max_distance
            and not (index.distances(encoded) <= max_distance).any()
        ):
            trace.rejected_isolated += 1
            continue
        index.append(encoded)
        seen.add(word)
        structures.append(word)
        trace.accepted += 1

    trace.saturated = len(structures) < instance.target_nodes
    # Distances are static, so the edges follow from the accepted structures alone.
    net = Network(structures, *index.join())
    if batch and not net.degrees().all():
        net = prune_low_degree(net, 1)
        trace.rejected_isolated += len(structures) - net.n_nodes
    return net, trace


def prune_low_degree(net: Network, min_degree: int) -> Network:
    """Remove every node whose degree on *net* is below *min_degree*.

    Single pass: degrees are taken on the input network, so survivors may end
    up with degree below the threshold once their neighbors vanish. The
    edge-iff-within-distance biconditional no longer holds afterwards.
    """
    if min_degree < 0:
        raise ValueError("min_degree must be >= 0")
    return net.subgraph(net.degrees() >= min_degree)
