"""Growth engine: the growth loop in both modes, pruning, distance index."""

from __future__ import annotations

import itertools
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snmodel import growth, instances_dir
from snmodel.distance import (
    DistanceConfig,
    parse_match_file,
    structure_distance,
    within_max_distance,
)
from snmodel.experiments import load_instance_file
from snmodel.growth import (
    BATCH,
    GroupIndex,
    Instance,
    grow,
    prune_low_degree,
)
from snmodel.network import Network
from snmodel.structures import Alphabet, Edit, EditProbabilities, apply_random_edit

from oracles import checkpoint_rows, edge_set, validate

AB = Alphabet.from_string("AB")
ABC = Alphabet.from_string("ABC")
MUTATE_ONLY = EditProbabilities(mutate=1.0)
ALL_EDITS = EditProbabilities(mutate=0.4, insert=0.2, delete=0.2, duplicate=0.2)


def small_instance(**overrides) -> Instance:
    params = dict(
        alphabet=ABC,
        initial_structures=("ABCABC",),
        probs=ALL_EDITS,
        distance=DistanceConfig(2, 1),
        target_nodes=60,
        seed=3,
    )
    params.update(overrides)
    return Instance(**params)


def check_biconditional(net: Network, instance: Instance) -> None:
    """Edge present iff structures within max distance, over all pairs."""
    edges = edge_set(net)
    for u in range(net.n_nodes):
        for v in range(u + 1, net.n_nodes):
            expected = within_max_distance(
                net.structures[u], net.structures[v], instance.distance
            )
            assert ((u, v) in edges) == expected, (u, v)


def decoded(row: bytes) -> list[int]:
    """The group ids of a packed row: little-endian int32, four bytes each."""
    assert len(row) % 4 == 0
    return [int.from_bytes(row[i : i + 4], "little", signed=True) for i in range(0, len(row), 4)]


def count_index_calls(monkeypatch) -> dict[str, int]:
    """Count the calls of GroupIndex.encode and GroupIndex.distances from now on."""
    calls = {"encode": 0, "distances": 0}
    for name in calls:

        def counted(index, *args, _name=name, _original=getattr(GroupIndex, name)):
            calls[_name] += 1
            return _original(index, *args)

        monkeypatch.setattr(GroupIndex, name, counted)
    return calls


class TestInstanceValidation:
    def test_requires_distinct_initials(self):
        with pytest.raises(ValueError, match="distinct"):
            small_instance(initial_structures=("ABC", "ABC"))

    def test_initials_must_fit_alphabet(self):
        with pytest.raises(ValueError):
            small_instance(initial_structures=("ABX",))

    def test_target_at_least_initials(self):
        with pytest.raises(ValueError, match="target_nodes"):
            small_instance(initial_structures=("ABC", "BCA"), target_nodes=1)

    def test_attempt_budget_default(self):
        assert small_instance(target_nodes=10).attempt_budget == 500
        assert small_instance(max_attempts=17, target_nodes=10).attempt_budget == 17

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            small_instance(mode="sideways")

    def test_mutation_needs_two_symbols(self):
        with pytest.raises(ValueError, match="alphabet"):
            small_instance(
                alphabet=Alphabet.from_string("A"),
                initial_structures=("AAA",),
                probs=MUTATE_ONLY,
            )

    def test_table_groups_must_fit_alphabet(self):
        # The table's groups are checked, not the alphabet it was parsed over.
        def instance_with(rules: str) -> Instance:
            table = parse_match_file(rules, 2, ABC)
            return small_instance(
                alphabet=AB,
                initial_structures=("ABAB",),
                distance=DistanceConfig(2, 1, match_table=table),
            )

        instance_with("AA = BB\nBB = AA\n")
        with pytest.raises(ValueError, match="match table"):
            instance_with("AA = CC\nCC = AA\n")


class TestGrowIncremental:
    def test_single_node_trivial_run(self):
        instance = small_instance(initial_structures=("ABCABC",), target_nodes=1)
        net, trace = grow(instance)
        assert net.n_nodes == 1
        assert net.n_edges == 0
        assert trace.attempts == 0
        assert not trace.saturated

    def test_reaches_target_with_distinct_structures(self):
        instance = small_instance()
        net, trace = grow(instance)
        assert net.n_nodes == 60
        assert trace.accepted == 59
        validate(net)

    def test_counters_partition_attempts(self):
        instance = small_instance(target_nodes=80)
        _, trace = grow(instance)
        total = (
            trace.accepted
            + trace.rejected_duplicate
            + trace.rejected_isolated
            + trace.rejected_edit_failed
        )
        assert total == trace.attempts

    def test_edge_iff_within_distance(self):
        instance = small_instance(target_nodes=80, seed=11)
        net, _ = grow(instance)
        check_biconditional(net, instance)

    def test_biconditional_with_match_table(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = parse_match_file("AA = BB\nBB = AA\n", 2, AB)
        instance = small_instance(
            alphabet=AB,
            initial_structures=("ABABAB",),
            distance=DistanceConfig(2, 1, match_table=table),
            target_nodes=40,
            seed=5,
        )
        net, _ = grow(instance)
        check_biconditional(net, instance)

    def test_initial_structures_connected_when_close(self):
        instance = small_instance(
            initial_structures=("ABCABC", "ABCABA"), target_nodes=2
        )
        net, _ = grow(instance)
        assert edge_set(net) == {(0, 1)}

    def test_distant_initials_survive_without_edges(self):
        # Initial nodes are exempt from the isolated-node rule.
        instance = small_instance(
            alphabet=AB,
            probs=MUTATE_ONLY,
            initial_structures=("AAAAAA", "BBBBBB"),
            distance=DistanceConfig(2, 0),
            target_nodes=2,
        )
        net, _ = grow(instance)
        assert net.n_nodes == 2
        assert net.n_edges == 0

    def test_saturation_flagged(self):
        # Unit-2 mutants always differ in one group, so max_distance 0
        # isolates every candidate and the budget runs out.
        instance = small_instance(
            alphabet=AB,
            probs=MUTATE_ONLY,
            initial_structures=("ABAB",),
            distance=DistanceConfig(2, 0),
            target_nodes=3,
            max_attempts=25,
        )
        net, trace = grow(instance)
        assert net.n_nodes == 1
        assert trace.saturated
        assert trace.attempts == 25
        assert trace.rejected_isolated == 25

    def test_deterministic_for_seed(self):
        instance = small_instance(target_nodes=50)
        net_a, _ = grow(instance)
        net_b, _ = grow(instance)
        assert net_a.structures == net_b.structures
        assert edge_set(net_a) == edge_set(net_b)
        net_c, _ = grow(small_instance(target_nodes=50, seed=4))
        assert net_a.structures != net_c.structures

    def test_checkpoints_record_growth(self):
        instance = small_instance(target_nodes=30)
        net, trace = grow(instance)
        rows = checkpoint_rows(net, instance, 10)
        sizes = [nodes for nodes, _, _ in rows]
        assert sizes == [10, 20, 30]
        for nodes, edges, attempts in rows:
            assert attempts >= nodes - 1
            assert edges >= nodes - 1
            assert edges == net.induced_prefix(nodes).n_edges
        # Growth stops at the attempt that accepts the last node.
        assert rows[-1][2] == trace.attempts
        # The isolation rule: every node after the initial one links to an earlier one.
        assert set(net.edge_v.tolist()) == set(range(1, net.n_nodes))

    def test_join_memory_is_chunked(self):
        # comparison.instance verifies about 170k candidate pairs. Verifying
        # them in bounded chunks peaks near 3 MB; holding them all at once
        # takes over 8 MB.
        instance = load_instance_file(instances_dir() / "comparison.instance").instance
        tracemalloc.start()
        try:
            net, _ = grow(instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.n_edges == 24705
        assert peak < 5_000_000

    def test_mutants_are_not_reencoded(self, monkeypatch):
        # GroupIndex.add copies a mutant's row from its template's row, and one
        # changed group never exceeds max_distance 1: no encoding and no
        # neighbour search.
        calls = count_index_calls(monkeypatch)
        instance = small_instance(
            probs=MUTATE_ONLY, initial_structures=("ABCABC", "CCABBA"), target_nodes=150
        )
        _, trace = grow(instance)
        assert trace.accepted == 148
        assert calls == {"encode": 2, "distances": 0}

    def test_all_edits_reach_suffix_encoding_and_neighbour_search(self, monkeypatch):
        # The all-edits golden run: shifted groups re-encode the suffix, and
        # candidates beyond their template are searched for a neighbour.
        calls = count_index_calls(monkeypatch)
        table = parse_match_file("AA = BB\nBB = AA\nAB = CC\nCC = AB\n", 2, ABC)
        instance = small_instance(
            initial_structures=("ABCABCABCABC",),
            distance=DistanceConfig(2, 1, match_table=table),
            target_nodes=400,
        )
        _, trace = grow(instance)
        assert trace.rejected_isolated > 0
        assert calls["encode"] > 1
        assert calls["distances"] > 0


class TestGrowBatch:
    def test_candidates_derive_from_initials_only(self):
        instance = small_instance(
            probs=MUTATE_ONLY,
            initial_structures=("ABCABC", "CBACBA"),
            mode=BATCH,
            target_nodes=30,
            seed=9,
        )
        net, _ = grow(instance)
        for word in net.structures:
            assert any(
                len(word) == len(init)
                and sum(a != b for a, b in zip(word, init)) <= 1
                for init in instance.initial_structures
            )

    def test_pairwise_biconditional_after_removal(self):
        instance = small_instance(mode=BATCH, target_nodes=50, seed=2)
        net, _ = grow(instance)
        check_biconditional(net, instance)
        validate(net)

    def test_isolated_nodes_dropped_including_initials(self):
        # AA and BB stay mutually distant; their mutants AB and BA coincide
        # as multisets, so exactly that pair survives.
        instance = small_instance(
            alphabet=AB,
            probs=MUTATE_ONLY,
            initial_structures=("AA", "BB"),
            distance=DistanceConfig(2, 0),
            mode=BATCH,
            target_nodes=4,
            max_attempts=200,
        )
        net, trace = grow(instance)
        assert sorted(net.structures) == ["AB", "BA"]
        assert net.n_edges == 1
        assert trace.rejected_isolated == 2

    def test_stops_once_every_single_edit_exists(self, monkeypatch):
        # batch.instance has 1 + 12 * 17 = 205 distinct words within one
        # mutation of its initial word, far fewer than its 150 000 attempts.
        instance = load_instance_file(instances_dir() / "batch.instance").instance
        assert instance.mode == BATCH
        net, trace = grow(instance)
        assert trace.saturated
        assert trace.accepted == 204
        assert trace.attempts < instance.attempt_budget // 20

        # Without the stop the loop draws only duplicates up to the budget.
        monkeypatch.setattr(growth, "edit_space_size", lambda *args: None)
        full_net, full_trace = grow(instance)
        assert full_trace.attempts == instance.attempt_budget
        assert net.structures == full_net.structures
        assert np.array_equal(net.edge_u, full_net.edge_u)
        assert np.array_equal(net.edge_v, full_net.edge_v)

    @pytest.mark.parametrize("p_mutate", [1.0, 0.9999999999])
    def test_stop_ignores_the_rounding_slack_of_the_probabilities(self, p_mutate):
        # "ABAB" has 4 mutants; mutation is the only kind with positive
        # probability even when the probabilities sum to just below 1.
        instance = small_instance(
            alphabet=AB,
            probs=EditProbabilities(mutate=p_mutate),
            initial_structures=("ABAB",),
            distance=DistanceConfig(1, 1),
            mode=BATCH,
            target_nodes=100,
            seed=0,
        )
        _, trace = grow(instance)
        assert trace.saturated
        assert (trace.attempts, trace.accepted) == (7, 4)

    def test_rows_derive_from_the_initial_row(self, monkeypatch):
        # Every candidate is a mutant of the initial word, so its ids come
        # from that word's row: one word is encoded, and no neighbour search
        # runs, in the loop or in the join.
        calls = count_index_calls(monkeypatch)
        instance = load_instance_file(instances_dir() / "batch.instance").instance
        assert instance.mode == BATCH
        _, trace = grow(instance)
        assert trace.accepted == 204
        assert calls == {"encode": 1, "distances": 0}


class TestPrune:
    def test_single_pass_keeps_survivors_below_threshold(self):
        # Path 0-1-2-3: ends have degree 1, middle degree 2. One pass keeps
        # the middle nodes even though their degree drops to 1 afterwards.
        net = Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        pruned = prune_low_degree(net, 2)
        assert pruned.n_nodes == 2
        assert pruned.n_edges == 1

    def test_star_collapses_to_center(self):
        net = Network.from_edges(9, [(0, i) for i in range(1, 9)])
        pruned = prune_low_degree(net, 2)
        assert pruned.n_nodes == 1
        assert pruned.n_edges == 0

    def test_zero_threshold_is_identity(self):
        net = Network.from_edges(4, [(0, 1), (1, 2)])
        pruned = prune_low_degree(net, 0)
        assert pruned.n_nodes == 4
        assert edge_set(pruned) == edge_set(net)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prune_low_degree(Network.from_edges(2, [(0, 1)]), -1)


class TestGroupIndex:
    """The vectorized scan must agree with the scalar distance everywhere."""

    #: Match tables by (unit, kind). A linking table declares groups of
    #: different multisets equal, and not transitively; an order-only one, like
    #: the shipped ecoli_matches.txt, only restates the multiset rule.
    TABLES = {
        (2, "linking"): "AA = BB\nAB = CC\n",  # AB = CC, yet BA (= AB) is not CC
        # AAB = CCC = BCB, yet AAB is not BCB; ABA = BBC, yet BAA is not BBC.
        (3, "linking"): "AAB = CCC\nABA = BBC\nCCC = BCB\n",
        (2, "order-only"): "AB = BA\nAC = CA\nBC = CB\n",
        (3, "order-only"): "ABC = CBA BCA\nAAB = BAA\n",
    }

    def config(self, unit: int, max_d: int, kind: str | None) -> DistanceConfig:
        """A distance config with the match table TABLES holds for (unit, kind), if any."""
        table = None
        if (unit, kind) in self.TABLES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = parse_match_file(self.TABLES[unit, kind], unit, ABC)
        return DistanceConfig(unit, max_d, match_table=table)

    @given(
        st.lists(st.text(alphabet="ABC", min_size=1, max_size=14), min_size=1, max_size=25),
        st.text(alphabet="ABC", min_size=1, max_size=14),
        st.integers(1, 3),
        st.integers(0, 3),
        st.sampled_from([None, "linking", "order-only"]),
    )
    @example(  # hashed, short-listed and fully scanned words at once
        ["ABCABCABCABC", "AB", "ABCABCABCABCABCABC", "ABCABCABCABA"],
        "ABCABCABCCBA",
        1,
        1,
        None,
    )
    @example(["ABCCABAB", "BAABCC", "AACCBBAA"], "CCABABBB", 2, 1, "linking")
    @example(["AABCCCBAA", "ABABBCCCC", "BCBAAB", "CBBABACCC"], "CCCAABBCB", 3, 1, "linking")
    @example(["ABBACACB", "BABAACBC", "ABCA"], "BAABCACB", 2, 1, "order-only")
    @example(  # max_distance above every word's group count: all short-listed
        ["ABCABC", "ABAB", "CBACBA", "AC", "BACBAC"], "ABCCBA", 2, 3, "linking"
    )
    @settings(max_examples=300, deadline=None)
    def test_neighbours_three_way(self, words, candidate, unit, max_d, kind):
        cfg = self.config(unit, max_d, kind)
        index = GroupIndex(cfg, [])
        # Only a linking table costs a pair lookup when verifying.
        assert (index._pairs.size > 0) == (cfg.match_table is not None and kind == "linking")
        for i, word in enumerate(words + [candidate]):
            encoded = index.encode(word)
            scanned = np.flatnonzero(index.distances(encoded) <= max_d)
            expected = [
                j for j, other in enumerate(words[:i])
                if structure_distance(word, other, cfg) <= max_d
            ]
            assert scanned.tolist() == expected
            if i < len(words):
                index.append(encoded)
        self.assert_join_is_brute_force(index, words, cfg)

    @staticmethod
    def assert_join_is_brute_force(index: GroupIndex, words: list[str], cfg: DistanceConfig):
        """The join lists every pair once, in no fixed order; Network orders them."""
        edge_u, edge_v = index.join()
        assert edge_u.dtype == edge_v.dtype == np.int64
        pairs = [
            (u, v) for v in range(len(words)) for u in range(v)
            if structure_distance(words[u], words[v], cfg) <= cfg.max_distance
        ]
        joined = zip(edge_u.tolist(), edge_v.tolist())
        assert sorted(joined, key=lambda pair: pair[::-1]) == pairs

    @given(
        st.integers(16, 40),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([None, "linking", "order-only"]),
        st.integers(0, 2**32 - 1),
    )
    @example(40, 2, 1, "linking", 0)  # G0 = 40 at d = 1: k = 4, five blocks of 8
    @example(40, 3, 3, None, 1)  # d = 3: k = 2, ten keys
    @settings(max_examples=150, deadline=None)
    def test_join_on_long_rows(self, groups, unit, max_d, kind, seed):
        # Row 0 has 16-40 groups, so the join splits them into d + k blocks
        # with k > 1 whenever groups // 8 - d > 1. The other rows are a few
        # mutations from earlier ones, so many pairs lie near the threshold;
        # some are cut short (short rows, verified against all) or extended.
        rng = random.Random(seed)
        words = ["".join(rng.choices("ABC", k=groups * unit))]
        for _ in range(rng.randint(10, 40)):
            word = list(rng.choice(words))
            for _ in range(rng.randint(1, 2 * max_d)):
                word[rng.randrange(len(word))] = rng.choice("ABC")
            if rng.random() < 0.2 and len(word) > 1:
                word = word[: rng.randrange(1, len(word))]
            elif rng.random() < 0.1:
                word += rng.choices("ABC", k=rng.randint(1, 3 * unit))
            words.append("".join(word))
        cfg = self.config(unit, max_d, kind)
        self.assert_join_is_brute_force(GroupIndex(cfg, words), words, cfg)

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=20),
        st.integers(1, 3),
        st.integers(0, 3),
        st.sampled_from([None, "linking"]),
        st.integers(0, 2**32 - 1),
    )
    @example([1, 2, 5, 3, 11, 12, 4], 2, 1, "linking", 0)  # widens 1 -> 2 -> 5 -> 11 -> 22
    @settings(max_examples=200, deadline=None)
    def test_row_store_widens_one_append_at_a_time(self, groups, unit, max_d, kind, seed):
        # Rows of the given group counts (some with a trailing partial group),
        # often extending an earlier row, so a row longer than every row so far
        # widens the store between two reads of it.
        rng = random.Random(seed)
        cfg = self.config(unit, max_d, kind)
        index = GroupIndex(cfg, [])
        words: list[str] = []
        for g in groups:
            length = max(1, g * unit + rng.randrange(unit))
            base = list(rng.choice(words)) if words and rng.random() < 0.6 else []
            word = (base + rng.choices("ABC", k=length))[:length]
            for _ in range(rng.randint(0, max_d + 1)):
                word[rng.randrange(length)] = rng.choice("ABC")
            words.append("".join(word))
            index.append(index.encode(words[-1]))
            assert index._width >= max(len(word) // unit for word in words)
            probe = "".join(rng.choices("ABC", k=rng.randint(1, 14 * unit)))
            for candidate in (probe, rng.choice(words)):
                expected = [structure_distance(candidate, other, cfg) for other in words]
                assert index.distances(index.encode(candidate)).tolist() == expected
        self.assert_join_is_brute_force(index, words, cfg)

    def test_append_after_a_read(self):
        # A read leaves no view of the row store alive, so the store can grow,
        # and widen, right after it.
        cfg = DistanceConfig(2, 0)
        words = ["ABAB", "ABCC"]
        index = GroupIndex(cfg, words)
        index.distances(index.encode("ABAC"))
        words.append("ABCCAB")  # longer than every row so far: widens the store
        index.append(index.encode(words[-1]))
        self.assert_join_is_brute_force(index, words, cfg)
        words.append("CC")
        index.append(index.encode(words[-1]))
        self.assert_join_is_brute_force(index, words, cfg)
        assert index.distances(index.encode("ABCC")).tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize("unit, kind", sorted(TABLES))
    def test_equal_groups_share_a_key_label(self, unit, kind):
        # The join hashes block keys of labels, so two groups the table or the
        # multiset rule declares equal must never get different labels.
        cfg = self.config(unit, 0, kind)
        index = GroupIndex(cfg, [])
        groups = ["".join(g) for g in itertools.product("ABC", repeat=unit)]
        ids = {group: decoded(index.encode(group))[0] for group in groups}
        labels = index._key_labels()
        for g1, g2 in itertools.product(groups, repeat=2):
            if structure_distance(g1, g2, cfg) == 0:
                assert labels[ids[g1]] == labels[ids[g2]], (g1, g2)

    @staticmethod
    def assert_rows_are_encodings(index: GroupIndex, words: list[str]):
        """Every stored row is its word's encoding, padded with -1 ids to the width."""
        ids, counts = index._matrix()
        assert ids.shape == (len(words), index._width)
        for i, word in enumerate(words):
            encoded = decoded(index.encode(word))
            assert ids[i, : counts[i]].tolist() == encoded
            assert (ids[i, counts[i] :] == -1).all()

    @given(
        st.lists(st.text(alphabet="ABC", min_size=1, max_size=8), min_size=1, max_size=4),
        st.lists(st.tuples(st.sampled_from(list(Edit)), st.booleans()), min_size=1, max_size=30),
        st.integers(1, 3),
        st.sampled_from([None, "linking", "order-only"]),
        st.integers(0, 2**32 - 1),
    )
    # "AB" duplicated widens the store from 2 to at least 4 groups, and the
    # new row is taken back at once; then rows copy and extend the wide ones.
    @example(["AB"], [(Edit.DUPLICATE, True), (Edit.MUTATE, False), (Edit.INSERT, False)], 1, None, 0)
    @example(["AB", "AC"], [(Edit.DUPLICATE, True)] * 3 + [(Edit.DELETE, False)], 1, "linking", 1)
    @settings(max_examples=300, deadline=None)
    def test_rows_added_in_place_equal_their_encoding(self, words, steps, unit, table, seed):
        # Each step draws one edit of a random stored word and adds its row
        # in place; a step may take the new row back at once, as growth does
        # with a candidate it searches for a neighbour.
        cfg = self.config(unit, 1, table)
        index = GroupIndex(cfg, words)
        words = list(words)
        rng = random.Random(seed)
        for kind, take_back in steps:
            template = rng.randrange(len(words))
            word, _, at = apply_random_edit(
                words[template], EditProbabilities(**{kind.value: 1.0}), ABC, rng
            )
            if word is None:  # nothing to delete
                continue
            distance = index.add(template, word, at, kind is Edit.MUTATE)
            if kind is Edit.MUTATE:
                # The one group a mutation may change: none in the trailing
                # partial group. It bounds the distance.
                assert distance == (at // unit < len(word) // unit)
                assert distance >= structure_distance(word, words[template], cfg)
            else:
                assert distance == structure_distance(word, words[template], cfg)
            words.append(word)
            self.assert_rows_are_encodings(index, words)
            if take_back:
                index.pop()
                words.pop()
                self.assert_rows_are_encodings(index, words)
        self.assert_join_is_brute_force(index, words, cfg)

    @given(
        st.lists(st.text(alphabet="ABC", min_size=1, max_size=9), min_size=1, max_size=25),
        st.text(alphabet="ABC", min_size=1, max_size=9),
        st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_distance(self, words, candidate, unit):
        from snmodel.distance import structure_distance

        cfg = DistanceConfig(unit, 0)
        index = GroupIndex(cfg, words)
        got = index.distances(index.encode(candidate))
        expected = [structure_distance(candidate, w, cfg) for w in words]
        assert got.tolist() == expected

    def test_construction_does_not_allocate_by_max_distance(self):
        tracemalloc.start()
        try:
            index = GroupIndex(DistanceConfig(2, 10**6), [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # Too short to hash: the join verifies every structure against the others.
        for word in ("ABAB", "ABCC", "CCCC"):
            index.append(index.encode(word))
        assert index.distances(index.encode("ABAC")).tolist() == [1, 1, 2]
        assert sorted(zip(*(arr.tolist() for arr in index.join()))) == [(0, 1), (0, 2), (1, 2)]

    def test_memory_grows_with_groups_not_their_square(self):
        # Six 6-symbol groups per word over 8 symbols: over 5000 distinct groups.
        rng = random.Random(0)
        words = ["".join(rng.choice("ABCDEFGH") for _ in range(36)) for _ in range(900)]
        assert len({word[i : i + 6] for word in words for i in range(0, 36, 6)}) > 5000
        tracemalloc.start()
        try:
            index = GroupIndex(DistanceConfig(6, 1), [])
            for word in words:
                encoded = index.encode(word)
                index.distances(encoded)
                index.append(encoded)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_matches_scalar_distance_with_table(self):
        from snmodel.distance import structure_distance

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = parse_match_file("AA = BB\nBB = AA\nAB = CC\n", 2, ABC)
        cfg = DistanceConfig(2, 0, match_table=table)
        rng = random.Random(0)
        words = [
            "".join(rng.choice("ABC") for _ in range(rng.randint(1, 10)))
            for _ in range(120)
        ]
        index = GroupIndex(cfg, words)
        for candidate in words[:25]:
            got = index.distances(index.encode(candidate))
            expected = [structure_distance(candidate, w, cfg) for w in words]
            assert got.tolist() == expected
