"""Growth of structured-node networks, incremental or batch, and pruning.

The growth loop derives a candidate structure from a randomly chosen template
by one edit, drawn by an edit drawer bound once per run, and rejects
duplicates and, in incremental mode, candidates that would be isolated. The
edit reports where the word starts to change, so ``GroupIndex.add`` writes
the candidate's row straight into the row store from its template's row: a
mutant's row is the template's padded row copied inside the store with at
most one id replaced; any other edit keeps the template's prefix and appends
the suffix encoded from the group it starts in, compared with the template's.
So the distance to the template is known: exact, or at most 1 for a mutant. A
candidate within max_distance of its template has a neighbour already; only
one further away is searched for a neighbour, by a scan over every structure,
the template included, and taken back by ``pop`` if it has none. A row is
plain bytes, so an attempt allocates no numpy array. The index
keeps every row once, in one padded buffer that the scan and the join read in
place through numpy views; no view outlives its call, since the buffer cannot
grow while one lives. Distances are static, so the edge relation depends on
the accepted structures alone: once the loop ends, one pairwise join over
them yields every edge, the same edges an insertion-time search would have
added.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distance import DistanceConfig
from .network import Network, component_labels
from .structures import Alphabet, Edit, EditProbabilities, below, edit_drawer, edit_space_size

# Growth draws its edits through edit_drawer; this name is kept for the
# benchmark's tracer (perfbench/tracer.py), which wraps growth.apply_random_edit.
from .structures import apply_random_edit  # noqa: F401

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


def _multiset(group: str) -> str:
    return "".join(sorted(group))


def _id(packed: bytes) -> int:
    return int.from_bytes(packed, "little")


class GroupIndex:
    """Exact distance queries and the pairwise distance join over structures.

    A structure is encoded as the ids of its full symbol groups. A group's id
    is that of its multiset, so equal ids match. Only a group that the match
    table links to a different multiset has an id of its own: the L linked
    groups take ids 0..L-1 and the multisets the ids from L on. A linked
    group's equalities (table partners, multiset siblings and its multiset)
    form one sorted array of pair codes, the only copy of the table
    relation (held as a frozenset too, for one pair at a time), consulted
    only when not empty. The distance over g groups is min(count, g) minus
    the matches.

    A row is the packed little-endian int32 bytes of a structure's ids, so
    ``encode`` returns plain bytes and ``append`` takes them. The index
    starts with the rows of the words it is given; ``append`` stores one
    more. ``add`` writes the row of one edit of an indexed structure in
    place, from that structure's row, re-encoding only the groups the edit
    may have changed, and returns its distance to that structure. ``pop``
    takes the last row back.

    Each row is kept once, in one row store: a bytearray of every row, each
    padded with -1 ids (0xff bytes, an id no group has) to the width of the
    longest row so far, and an array of the rows' group counts. A row longer
    than the width widens every row first, to at least twice the width; a
    row taken back leaves the width as it is. ``distances`` and ``join``
    read the store in place, as numpy views of an id matrix and of the
    counts. A view must not outlive the call that made it: while one lives,
    the next ``append`` or ``add`` raises BufferError.
    ``distances`` answers one query by a scan over every row.

    ``join`` returns every pair within d = max_distance at once, as a
    partition-based exact join (Arasu, Ganti & Kaushik, VLDB 2006) on the
    general pigeonhole filter (Manku, Jain & Das Sarma, WWW 2007; Qin et
    al., "GPH", ICDE 2018) of multi-index hashing (Norouzi, Punjani & Fleet,
    CVPR 2012). The leading groups are split into d+k blocks of b groups,
    set from the group count G0 of row 0 (see ``_blocks``): single groups,
    k = G0 - d, when that takes at most 16 keys, and otherwise blocks of
    about 8 groups, k = max(1, G0 // 8 - d), lowered while the keys exceed
    16. Two structures that both have at least (d+k)*b groups and lie within
    distance d differ in at most d blocks, so they agree in every group of
    some k blocks. There is one key per choice of the d blocks left out, so
    C(d+k, d) keys. The key hash is additive: each group adds its label times
    a constant of its column, in 64 bits that wrap, so a key is the row's
    total minus the terms of the d blocks it leaves out. A label is
    the connected component of a group's id in the pair codes, so equal
    groups share one. The table relation is not transitive, so keys may
    over-match; verification against the exact relation removes the extras.
    Per key, the rows are grouped by their key, the pairs inside each group
    are verified in bounded chunks, and a pair an earlier key already
    grouped together is dropped, so each pair is verified once. A structure
    with fewer groups is short: it is verified against every other one.
    """

    _PAD = -1
    #: Candidate pairs the join verifies at once: bounds their memory.
    _CHUNK = 8192
    #: Groups compared per step when verifying the join's pairs.
    _SLAB = 32
    #: Odd multiplier of the key hash (the golden ratio in 64 bits); column c
    #: weighs its label by its (c+1)-th power.
    _MIX = np.uint64(0x9E3779B97F4A7C15)
    #: Groups per join block of long rows, roughly, and the most keys the join
    #: sorts by: more keys cost a sort of every row each, and long blocks
    #: already make a key nearly as selective as the edges themselves.
    _BLOCK = 8
    _KEYS = 16

    def __init__(self, cfg: DistanceConfig, words: Iterable[str]) -> None:
        self._unit = cfg.unit_distance
        self._max_d = cfg.max_distance
        table = cfg.match_table or {}
        links = [(group, partner) for group in table for partner in table[group]]
        # A linked group has an id of its own, 0..L-1; pair codes say what it equals.
        linked = sorted({group for link in links for group in link})
        ids = {group: gid for gid, group in enumerate(linked)}
        self._n_linked = len(linked)
        self._multiset_ids: dict[str, int] = {}
        pairs = {(ids[group], ids[partner]) for group, partner in links}
        for group in linked:
            key, gid = _multiset(group), ids[group]
            siblings = [ids[other] for other in linked if _multiset(other) == key]
            pairs.update((gid, other) for other in siblings + [self._multiset_id(key)])
        codes = sorted({a << 32 | b for pair in pairs for a, b in (pair, pair[::-1])})
        self._pairs = np.array(codes, dtype=np.int64)
        self._pair_set = frozenset(codes)
        #: Each group seen so far, with its packed id.
        self._groups = {group: gid.to_bytes(4, "little") for group, gid in ids.items()}
        #: The row store: every row padded to _width groups, and each row's group count.
        self._store = bytearray()
        self._width = 0
        self._counts = array("i")
        for word in words:
            self.append(self.encode(word))

    def _multiset_id(self, key: str) -> int:
        """The id of multiset *key*; multisets take the ids from L on."""
        return self._multiset_ids.setdefault(key, self._n_linked + len(self._multiset_ids))

    def _group(self, group: str) -> bytes:
        """The packed id of one symbol group: its multiset's, unless the table links it."""
        packed = self._groups.get(group)
        if packed is None:
            packed = self._multiset_id(_multiset(group)).to_bytes(4, "little")
            self._groups[group] = packed
        return packed

    def encode(self, word: str) -> bytes:
        """The packed ids of the full symbol groups of *word*."""
        unit = self._unit
        end = len(word) - len(word) % unit
        return b"".join([self._group(word[i : i + unit]) for i in range(0, end, unit)])

    def append(self, encoded: bytes) -> None:
        """Store one more row, the packed ids *encoded*."""
        groups = len(encoded) // 4
        self._fit(groups)
        self._store += encoded.ljust(4 * self._width, b"\xff")
        self._counts.append(groups)

    def add(self, template: int, word: str, at: int, same_length: bool) -> int:
        """Store the row of *word*, one edit of indexed structure *template*; its distance.

        *word* agrees with the template's word before position *at* and, when
        *same_length* (a mutation), after it too. The groups before the one
        holding *at* keep the template's ids, which match. A mutation copies
        the template's padded row inside the store with that one group's id
        replaced, or none in the trailing partial group; its distance is
        bounded by the groups replaced, 1 or 0. Any other edit keeps the
        template's prefix and encodes the suffix from that group on, and its
        distance is exact: the suffix's misses against the template's row
        from there.
        """
        unit, count = self._unit, self._counts[template]
        k = at // unit
        store, w4 = self._store, 4 * self._width
        lo = w4 * template
        if same_length:
            self._counts.append(count)
            if k == count:  # the trailing partial group, in no id
                store += store[lo : lo + w4]
                return 0
            # Three appends cost less than a copy and a 4-byte slice assignment.
            at_id = lo + 4 * k
            store += store[lo:at_id]
            store += self._group(word[k * unit : (k + 1) * unit])
            store += store[at_id + 4 : lo + w4]
            return 1
        suffix = self.encode(word[k * unit :])
        pairs, misses, lo = self._pair_set, 0, lo + 4 * k
        for i in range(0, 4 * min(count - k, len(suffix) // 4), 4):
            a, b = store[lo + i : lo + i + 4], suffix[i : i + 4]
            misses += a != b and (not pairs or _id(a) << 32 | _id(b) not in pairs)
        groups = k + len(suffix) // 4
        if groups > self._width:
            self._fit(groups)
            store, w4 = self._store, 4 * self._width
            lo = w4 * template + 4 * k
        store += store[lo - 4 * k : lo]
        store += suffix.ljust(w4 - 4 * k, b"\xff")
        self._counts.append(groups)
        return misses

    def pop(self) -> None:
        """Remove the last row."""
        del self._store[-4 * self._width :]
        self._counts.pop()

    def _fit(self, groups: int) -> None:
        """Widen every row, to at least twice the width, if *groups* exceed it."""
        if groups > self._width:
            n, width = len(self._counts), max(groups, 2 * self._width)
            wide = np.full((n, width), self._PAD, dtype="<i4")
            wide[:, : self._width] = np.frombuffer(self._store, "<i4").reshape(n, self._width)
            self._store, self._width = bytearray(wide), width

    def _row(self, i: int) -> bytearray:
        """Row *i* without its padding."""
        lo = 4 * self._width * i
        return self._store[lo : lo + 4 * self._counts[i]]

    def _matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The padded id matrix and the group counts: views of the row store."""
        ids = np.frombuffer(self._store, "<i4").reshape(len(self._counts), self._width)
        return ids, np.frombuffer(self._counts, np.intc)

    def _matches(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Where the group ids *a* and *b* name equal groups; a pad equals no group."""
        matches = a == b
        if self._pairs.size:
            matches |= np.isin(a.astype(np.int64) << 32 | b, self._pairs)
        return matches

    def distances(self, encoded: bytes) -> np.ndarray:
        """Distance from the encoded candidate to every indexed structure."""
        ids, counts = self._matrix()
        candidate = np.frombuffer(encoded, "<i4")
        g = min(candidate.shape[0], ids.shape[1])
        matches = self._matches(ids[:, :g], candidate[:g])
        return (np.minimum(counts, g) - np.count_nonzero(matches, axis=1)).astype(np.int32)

    def join(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (u, v), u < v, of indexed structures within max_distance.

        Returns the int64 arrays u and v, each pair once, in no fixed order.
        """
        ids, counts = self._matrix()
        n, max_d = ids.shape[0], self._max_d
        ids = ids[:, : int(counts.max()) if n else 0]
        blocks, b = self._blocks(int(counts[0]) if n else 0)
        short = counts < blocks * b
        nodes = np.arange(n)
        # Seeded empty, so a join that finds no pair returns empty int64 arrays.
        found: list[tuple[np.ndarray, np.ndarray]] = [(nodes[:0], nodes[:0])]
        # A short structure is verified against all others; two short ones once.
        for s in np.flatnonzero(short):
            dist = self.distances(self._row(s))
            others = np.flatnonzero((dist <= max_d) & ((nodes > s) | ~short & (nodes < s)))
            found.append((np.minimum(others, s), np.maximum(others, s)))
        hashed = np.flatnonzero(~short)
        if hashed.shape[0] > 1:
            labels = ids[hashed, : blocks * b] if short.any() else ids[:, : blocks * b]
            if self._pairs.size:
                labels = self._key_labels()[labels]
            # Per row and block, the block's term of the additive key hash.
            weights = np.cumprod(np.full(blocks * b, self._MIX)).view(np.int64)
            terms = np.einsum(
                "rjc,jc->rj", labels.reshape(-1, blocks, b), weights.reshape(blocks, b)
            )
            total = terms.sum(axis=1)
            keys: list[np.ndarray] = []
            for left_out in combinations(range(blocks), max_d):
                key = total - terms[:, left_out].sum(axis=1)
                for a, c in self._equal_key_pairs(key, self._CHUNK):
                    # A pair whose key agrees in an earlier key was verified there.
                    for earlier in keys:
                        keep = earlier[a] != earlier[c]
                        a, c = a[keep], c[keep]
                    u, v = hashed[a], hashed[c]
                    close = self._close(ids, counts, u, v)
                    found.append((u[close], v[close]))
                keys.append(key)
        return np.concatenate([u for u, _ in found]), np.concatenate([v for _, v in found])

    def _blocks(self, g0: int) -> tuple[int, int]:
        """The join's block count d + k and block width b for row 0's g0 groups.

        Single groups give the most selective keys; the class docstring has the rule.
        """
        max_d = self._max_d

        def most_blocks(limit: int) -> int:
            blocks, n_keys = max_d + 1, max_d + 1
            # C(m+1, d) = C(m, d) * (m+1) / (m+1-d)
            while blocks < limit and n_keys * (blocks + 1) // (blocks + 1 - max_d) <= self._KEYS:
                n_keys = n_keys * (blocks + 1) // (blocks + 1 - max_d)
                blocks += 1
            return blocks

        blocks = most_blocks(g0)
        if blocks < g0:
            blocks = most_blocks(g0 // self._BLOCK)
        return blocks, max(1, g0 // blocks)

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
        order = np.argsort(key)
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
            a, c = order[first], order[second]
            yield np.minimum(a, c), np.maximum(a, c)
            t0, done = t1, int(total[t1 - 1])


def grow(instance: Instance) -> tuple[Network, GrowthTrace]:
    """Grow a network from the instance's initial structures.

    Each attempt edits a uniformly chosen template once; a failed edit or a
    duplicate structure is rejected. Incremental growth draws the template
    from every structure so far and rejects a candidate that would connect
    to nothing, so the network at n nodes is the induced prefix of n nodes.
    Batch growth draws it from the initial structures, tests no isolation,
    stops once it has drawn every single edit of them, and after wiring
    drops every isolated node, initial ones included. Incremental growth by
    mutation alone stops once it holds every word of its initial lengths.
    Both stop at target_nodes or when the attempt budget runs out.
    """
    rng = random.Random(instance.seed)
    bits = rng.getrandbits
    draw = edit_drawer(instance.probs, instance.alphabet, rng)
    initial = instance.initial_structures
    structures = list(initial)
    seen = set(structures)
    index = GroupIndex(instance.distance, structures)

    batch = instance.mode == BATCH
    max_distance = instance.distance.max_distance
    target, budget = instance.target_nodes, instance.attempt_budget
    # A space larger than the budget is not listed: None never equals a count.
    if batch:
        space_size = edit_space_size(initial, instance.probs, instance.alphabet, budget)
    else:
        space_size = _word_space_size(instance, budget + len(initial))
    mutate, n = Edit.MUTATE, len(structures)
    attempts = duplicates = isolated = failed = 0
    while n < target and attempts < budget and n != space_size:
        attempts += 1
        template = below(bits, len(initial) if batch else n)
        word, kind, at = draw(structures[template])
        if word is None:
            failed += 1
            continue
        if word in seen:
            duplicates += 1
            continue
        distance = index.add(template, word, at, kind is mutate)
        # A candidate within reach of its template has a neighbour already;
        # one further away is searched for one over every structure so far,
        # its template included, and taken back if it has none. The scan
        # reads the stored candidate too; its own last entry is left out.
        if not batch and distance > max_distance:
            if not (index.distances(index._row(n))[:-1] <= max_distance).any():
                index.pop()
                isolated += 1
                continue
        seen.add(word)
        structures.append(word)
        n += 1

    trace = GrowthTrace(
        attempts=attempts,
        accepted=n - len(initial),
        rejected_duplicate=duplicates,
        rejected_isolated=isolated,
        rejected_edit_failed=failed,
        saturated=n < target,
    )
    # Distances are static, so the edges follow from the accepted structures alone.
    net = Network(structures, *index.join())
    if batch and not net.degrees().all():
        net = prune_low_degree(net, 1)
        trace.rejected_isolated += len(structures) - net.n_nodes
    return net, trace


def _word_space_size(instance: Instance, limit: int) -> int | None:
    """The words incremental growth of *instance* can hold, if it is by mutation alone.

    A mutant keeps its template's length, so growth holds at most the |A|^L
    words of each distinct initial length L; once it holds them all, every
    further attempt draws a duplicate. (With max_distance >= 1 no mutant is
    isolated, and mutations link every word of a length, so it reaches
    them.) Returns None for any other edit mix, or when that count exceeds
    *limit*, without computing a power above it.
    """
    probs = instance.probs
    if probs.insert or probs.delete or probs.duplicate:
        return None
    lengths = {len(word) for word in instance.initial_structures}
    # |A| >= 2, so |A|^L > limit once L reaches limit's bit length.
    if max(lengths) >= limit.bit_length():
        return None
    size = sum(len(instance.alphabet) ** length for length in lengths)
    return size if size <= limit else None


def prune_low_degree(net: Network, min_degree: int) -> Network:
    """Remove every node whose degree on *net* is below *min_degree*.

    Single pass: degrees are taken on the input network, so survivors may end
    up with degree below the threshold once their neighbors vanish. The
    edge-iff-within-distance biconditional no longer holds afterwards.
    """
    if min_degree < 0:
        raise ValueError("min_degree must be >= 0")
    return net.subgraph(net.degrees() >= min_degree)
