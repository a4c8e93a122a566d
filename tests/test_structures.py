"""Edit operations and the random-edit driver."""

from __future__ import annotations

import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snmodel import structures
from snmodel.structures import (
    Alphabet,
    Edit,
    EditProbabilities,
    apply_random_edit,
    below,
    edit_drawer,
    edit_space_size,
)

from oracles import reference_edit

ABC = Alphabet.from_string("ABC")
AB = Alphabet.from_string("AB")
ALL_EDITS = EditProbabilities(mutate=0.4, insert=0.2, delete=0.2, duplicate=0.2)


def only(kind: Edit) -> EditProbabilities:
    return EditProbabilities(**{kind.value: 1.0})


def draws(word: str, kind: Edit, alphabet: Alphabet, n: int = 2000) -> set[tuple[str, int]]:
    """The distinct (new word, at) results of *n* fixed-seed draws of one kind."""
    rng = random.Random(0)
    results = (apply_random_edit(word, only(kind), alphabet, rng) for _ in range(n))
    return {(new, at) for new, _, at in results}


class TestAlphabet:
    def test_from_string_keeps_order(self):
        assert Alphabet.from_string("TAC").symbols == ("T", "A", "C")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet.from_string("ABA")

    def test_rejects_multichar_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("AB",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet.from_string("")

    def test_membership(self):
        assert "B" in ABC
        assert "X" not in ABC

    def test_validate_word(self):
        ABC.validate_word("ABCCBA")
        with pytest.raises(ValueError):
            ABC.validate_word("")
        with pytest.raises(ValueError):
            ABC.validate_word("ABX")


class TestEditProbabilities:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            EditProbabilities(mutate=0.5, insert=0.4)

    def test_each_in_unit_interval(self):
        with pytest.raises(ValueError):
            EditProbabilities(mutate=1.5, insert=-0.5)

    def test_tolerates_rounding(self):
        EditProbabilities(mutate=0.1 + 0.2, insert=0.7)


class TestApplyRandomEdit:
    @pytest.mark.parametrize(
        "word, kind, new, at",
        [
            # "ABBABC can be obtained from ABCABC mutating the third symbol"
            ("ABCABC", Edit.MUTATE, "ABBABC", 2),
            # "ABBABBC can be obtained from ABBABC adding B in the sixth position"
            ("ABBABC", Edit.INSERT, "ABBABBC", 5),
            # "ABCBC can be obtained from ABCABC deleting the fourth symbol"
            ("ABCABC", Edit.DELETE, "ABCBC", 3),
            # "ABBBBABBC can be obtained from ABBABBC duplicating the second and third B"
            ("ABBABBC", Edit.DUPLICATE, "ABBBBABBC", 3),
        ],
    )
    def test_paper_examples_are_drawn(self, word, kind, new, at):
        assert (new, at) in draws(word, kind, ABC)

    @pytest.mark.parametrize(
        "word, kind, space",
        [
            ("AB", Edit.MUTATE, {("BB", 0), ("CB", 0), ("AA", 1), ("AC", 1)}),
            ("ABC", Edit.DELETE, {("BC", 0), ("AC", 1), ("AB", 2)}),
            (
                "ABC",
                Edit.DUPLICATE,
                {
                    ("AABC", 1), ("ABABC", 2), ("ABCABC", 3),
                    ("ABBC", 2), ("ABCBC", 3), ("ABCC", 3),
                },
            ),
        ],
    )
    def test_draws_cover_the_edit_space(self, word, kind, space):
        assert draws(word, kind, ABC) == space

    def test_mutation_changes_exactly_one_position(self):
        rng = random.Random(7)
        probs = EditProbabilities(mutate=1.0)
        for _ in range(200):
            word, kind, _ = apply_random_edit("ABCABC", probs, ABC, rng)
            assert kind is Edit.MUTATE
            assert word is not None and len(word) == 6
            assert sum(a != b for a, b in zip(word, "ABCABC")) == 1

    def test_insert_enumerates_superstrings(self):
        # On "AB" over {A, B} the 6 possible (index, symbol) draws yield these.
        rng = random.Random(3)
        probs = EditProbabilities(insert=1.0)
        seen = {apply_random_edit("AB", probs, AB, rng)[0] for _ in range(300)}
        assert seen == {"AAB", "BAB", "ABB", "ABA"}

    def test_delete_on_single_symbol_fails(self):
        rng = random.Random(0)
        probs = EditProbabilities(delete=1.0)
        word, kind, _ = apply_random_edit("A", probs, ABC, rng)
        assert word is None
        assert kind is Edit.DELETE

    def test_duplicate_on_single_symbol(self):
        rng = random.Random(0)
        probs = EditProbabilities(duplicate=1.0)
        assert apply_random_edit("A", probs, ABC, rng) == ("AA", Edit.DUPLICATE, 1)

    @pytest.mark.parametrize("kind", list(Edit))
    def test_length_cap_fails_only_growing_edits(self, kind, monkeypatch):
        # At the cap an insert or a duplication fails; the other edits do not.
        monkeypatch.setattr(structures, "DEFAULT_MAX_LENGTH", 6)
        word, got_kind, _ = apply_random_edit("ABCABC", only(kind), ABC, random.Random(0))
        assert got_kind is kind
        assert (word is None) == (kind in (Edit.INSERT, Edit.DUPLICATE))

    @given(
        st.text(alphabet="ABC", min_size=1, max_size=12),
        st.sampled_from(list(Edit)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 24),
    )
    def test_edit_reports_where_the_word_starts_to_change(self, word, kind, seed, max_length):
        with patch.object(structures, "DEFAULT_MAX_LENGTH", max_length):
            new, got_kind, at = apply_random_edit(word, only(kind), ABC, random.Random(seed))
        assert got_kind is kind
        # An edit fails only with nothing to delete or too long a result.
        too_long = len(word) + 1 > max_length
        if kind is Edit.MUTATE:
            assert new is not None
        elif kind is Edit.DELETE:
            assert (new is None) == (len(word) < 2)
        elif kind is Edit.INSERT or too_long:
            assert (new is None) == too_long
        if new is None:
            assert at == 0
            return
        assert new[:at] == word[:at]
        if kind is Edit.MUTATE:
            assert len(new) == len(word)
            assert new[at + 1 :] == word[at + 1 :] and new[at] != word[at]
        elif kind is Edit.INSERT:
            assert len(new) == len(word) + 1 and new[at + 1 :] == word[at:]
        elif kind is Edit.DELETE:
            assert len(new) == len(word) - 1 and new[at:] == word[at + 1 :]
        else:
            # The k symbols from at repeat the k before it: the copied segment.
            k = len(new) - len(word)
            assert 1 <= k <= at
            assert new[at : at + k] == new[at - k : at] and new[at + k :] == word[at:]

    def test_kind_frequencies_follow_probabilities(self):
        rng = random.Random(11)
        probs = EditProbabilities(mutate=0.4, insert=0.1, delete=0.1, duplicate=0.4)
        kinds = Counter(
            apply_random_edit("ABCABC", probs, ABC, rng)[1] for _ in range(4000)
        )
        assert abs(kinds[Edit.MUTATE] / 4000 - 0.4) < 0.05
        assert abs(kinds[Edit.INSERT] / 4000 - 0.1) < 0.05
        assert abs(kinds[Edit.DELETE] / 4000 - 0.1) < 0.05
        assert abs(kinds[Edit.DUPLICATE] / 4000 - 0.4) < 0.05

    def test_kind_of_probability_zero_is_never_drawn(self):
        # The probabilities sum to within rounding of 1, not to 1; a draw in
        # the slack [total, 1) still takes a kind of positive probability.
        probs = EditProbabilities(mutate=0.5, insert=0.5 - 1e-10)
        total = probs.mutate + probs.insert

        class Slack(random.Random):
            def random(self) -> float:
                return (total + 1.0) / 2

        assert total <= Slack().random() < 1.0
        _, kind, _ = apply_random_edit("ABCABC", probs, ABC, Slack(0))
        assert kind is Edit.INSERT

    def test_deterministic_given_seed(self):
        probs = EditProbabilities(mutate=0.5, insert=0.2, delete=0.1, duplicate=0.2)
        rng_a, rng_b = random.Random(5), random.Random(5)
        a = [apply_random_edit("ABCABC", probs, ABC, rng_a) for _ in range(50)]
        b = [apply_random_edit("ABCABC", probs, ABC, rng_b) for _ in range(50)]
        assert a == b


class TestBelow:
    """``below``, and the edit draw that draws through it, must draw what
    CPython's ``randrange`` and ``randint`` draw."""

    #: 1, 2, 3, each 2^k - 1, 2^k and 2^k + 1 up to k = 40, and the draw
    #: sizes of the shipped instances (282 templates, 3000 nodes).
    SIZES = sorted({1, 2, 3, 282, 3000} | {2**k + e for k in range(2, 41) for e in (-1, 0, 1)})

    @pytest.mark.parametrize("n", SIZES)
    def test_same_values_and_state_as_randrange(self, n):
        ours, cpython = random.Random(n), random.Random(n)
        assert [below(ours.getrandbits, n) for _ in range(300)] == [
            cpython.randrange(n) for _ in range(300)
        ]
        assert ours.getstate() == cpython.getstate()

    @pytest.mark.parametrize("max_length", [12, structures.DEFAULT_MAX_LENGTH])
    @pytest.mark.parametrize("symbols", ["AB", "ABCDEFGHILMNOPQRST"])
    @pytest.mark.parametrize(
        "probs",
        [only(kind) for kind in Edit]
        + [
            ALL_EDITS,
            EditProbabilities(mutate=0.5, delete=0.5),
            EditProbabilities(insert=0.3, duplicate=0.7),
        ],
    )
    def test_edit_draws_follow_randrange_and_randint(self, probs, symbols, max_length, monkeypatch):
        # The drawer draws every parameter through below; the reference
        # draws with randrange and randint. At max length 12 some inserts and
        # duplications of the 7- and 11-symbol words fail after their draws.
        monkeypatch.setattr(structures, "DEFAULT_MAX_LENGTH", max_length)
        alphabet = Alphabet.from_string(symbols)
        ours, reference = random.Random(max_length), random.Random(max_length)
        draw = edit_drawer(probs, alphabet, ours)
        words = [symbols[0], symbols[::-1], (symbols * 4)[:7], (symbols * 6)[:11], symbols * 3]
        for i in range(1500):
            word = words[i % len(words)]
            assert draw(word) == reference_edit(word, probs, alphabet, reference)
        assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", SIZES)
    def test_one_more_is_randint_from_one(self, n):
        ours, cpython = random.Random(-n), random.Random(-n)
        assert [1 + below(ours.getrandbits, n) for _ in range(300)] == [
            cpython.randint(1, n) for _ in range(300)
        ]
        assert ours.getstate() == cpython.getstate()


class TestEditSpace:
    @pytest.mark.parametrize(
        "probs",
        [
            ALL_EDITS,
            EditProbabilities(mutate=1.0),
            EditProbabilities(insert=0.5, delete=0.5),
            EditProbabilities(delete=0.3, duplicate=0.7),
        ],
    )
    def test_edit_space_is_what_random_edits_reach(self, probs, monkeypatch):
        # Length-1 words cannot lose a symbol and max length 4 cuts off
        # inserts into "ABBA" and the longer duplicates of "BAA".
        monkeypatch.setattr(structures, "DEFAULT_MAX_LENGTH", 4)
        words = ("A", "BAA", "ABBA")
        rng = random.Random(1)
        reached = set(words)
        for _ in range(20000):
            word, _, _ = apply_random_edit(words[rng.randrange(3)], probs, AB, rng)
            if word is not None:
                reached.add(word)
        assert edit_space_size(words, probs, AB, 400) == len(reached)

    def test_kinds_of_probability_zero_are_not_listed(self):
        # Mutants alone: 4 words besides "ABAB", however close the sum is to 1.
        for p in (1.0, 0.9999999999):
            assert edit_space_size(("ABAB",), EditProbabilities(mutate=p), AB, 100) == 5

    def test_edit_space_listed_only_within_the_limit(self):
        # "ABCABC": 6 * 2 mutants + 7 * 3 inserts + 6 deletes + 21 duplicates
        # = 60 edits, 45 distinct words besides the initial one.
        assert edit_space_size(("ABCABC",), ALL_EDITS, ABC, 60) == 46
        assert edit_space_size(("ABCABC",), ALL_EDITS, ABC, 59) is None
