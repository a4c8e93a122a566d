"""Edit operations and the random-edit driver."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snmodel.structures import (
    Alphabet,
    Edit,
    EditProbabilities,
    apply_random_edit,
    delete_symbol,
    duplicate_segment,
    insert_symbol,
    mutate,
)

ABC = Alphabet.from_string("ABC")
AB = Alphabet.from_string("AB")


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

    def test_membership_and_position(self):
        assert "B" in ABC
        assert "X" not in ABC
        assert ABC.position("C") == 2
        with pytest.raises(ValueError):
            ABC.position("X")

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


class TestEditOperations:
    def test_mutate_example(self):
        # "ABBABC can be obtained from ABCABC mutating the third symbol"
        assert mutate("ABCABC", 2, "B", ABC) == "ABBABC"

    def test_insert_example(self):
        # "ABBABBC can be obtained from ABBABC adding B in the sixth position"
        assert insert_symbol("ABBABC", 5, "B", ABC) == "ABBABBC"

    def test_delete_example(self):
        # "ABCBC can be obtained from ABCABC deleting the fourth symbol"
        assert delete_symbol("ABCABC", 3) == "ABCBC"

    def test_duplicate_example(self):
        # "ABBBBABBC can be obtained from ABBABBC duplicating the second and third B"
        assert duplicate_segment("ABBABBC", 1, 2) == "ABBBBABBC"

    def test_duplicate_single_symbol(self):
        assert duplicate_segment("A", 0, 1) == "AA"

    def test_duplicate_whole_word(self):
        assert duplicate_segment("ABC", 0, 3) == "ABCABC"

    def test_mutate_bounds(self):
        with pytest.raises(IndexError):
            mutate("ABC", 3, "A", ABC)
        with pytest.raises(ValueError):
            mutate("ABC", 0, "X", ABC)

    def test_insert_bounds(self):
        assert insert_symbol("AB", 2, "C", ABC) == "ABC"
        with pytest.raises(IndexError):
            insert_symbol("AB", 3, "C", ABC)

    def test_delete_refuses_to_empty(self):
        with pytest.raises(ValueError):
            delete_symbol("A", 0)
        with pytest.raises(IndexError):
            delete_symbol("AB", 2)

    def test_duplicate_bounds(self):
        with pytest.raises(IndexError):
            duplicate_segment("ABC", 2, 2)
        with pytest.raises(IndexError):
            duplicate_segment("ABC", 0, 0)

    @given(st.text(alphabet="ABC", min_size=1, max_size=12), st.data())
    def test_length_laws(self, word, data):
        index = data.draw(st.integers(0, len(word) - 1))
        symbol = data.draw(st.sampled_from("ABC"))
        assert len(mutate(word, index, symbol, ABC)) == len(word)
        assert len(insert_symbol(word, index, symbol, ABC)) == len(word) + 1
        if len(word) > 1:
            assert len(delete_symbol(word, index)) == len(word) - 1
        length = data.draw(st.integers(1, len(word) - index))
        assert len(duplicate_segment(word, index, length)) == len(word) + length


class TestApplyRandomEdit:
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

    def test_length_cap_fails_attempt(self):
        rng = random.Random(0)
        probs = EditProbabilities(duplicate=1.0)
        word, kind, _ = apply_random_edit("ABCABC", probs, ABC, rng, max_length=6)
        assert word is None and kind is Edit.DUPLICATE

    @given(
        st.text(alphabet="ABC", min_size=1, max_size=12),
        st.sampled_from(list(Edit)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 24),
    )
    def test_edit_reports_where_the_word_starts_to_change(self, word, kind, seed, max_length):
        probs = EditProbabilities(**{kind.value: 1.0})
        new, got_kind, at = apply_random_edit(word, probs, ABC, random.Random(seed), max_length)
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

    def test_deterministic_given_seed(self):
        probs = EditProbabilities(mutate=0.5, insert=0.2, delete=0.1, duplicate=0.2)
        rng_a, rng_b = random.Random(5), random.Random(5)
        a = [apply_random_edit("ABCABC", probs, ABC, rng_a) for _ in range(50)]
        b = [apply_random_edit("ABCABC", probs, ABC, rng_b) for _ in range(50)]
        assert a == b
