"""Group distance, match tables, and their invariants."""

from __future__ import annotations

import warnings
from collections.abc import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snmodel.distance import (
    DistanceConfig,
    parse_match_file,
    structure_distance,
    within_max_distance,
)
from snmodel.structures import Alphabet

AB = Alphabet.from_string("AB")
ABC = Alphabet.from_string("ABC")

PAIR_FILE = "AB =\nBA =\nAA = BB\nBB = AA\n"

words = st.text(alphabet="ABC", min_size=1, max_size=20)


def table_from(text: str, unit: int = 2, alphabet: Alphabet = AB) -> Mapping[str, frozenset[str]]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_match_file(text, unit, alphabet)


class TestWorkedExamples:
    """The distance values pinned by hand-checked examples."""

    def test_unit_1(self):
        cfg = DistanceConfig(1, 0)
        assert structure_distance("ABBABC", "BABCAB", cfg) == 5

    def test_unit_2(self):
        cfg = DistanceConfig(2, 0)
        assert structure_distance("ABBABC", "BABCAB", cfg) == 2

    def test_unit_3(self):
        cfg = DistanceConfig(3, 0)
        assert structure_distance("ABBABC", "BABCAB", cfg) == 0

    def test_excess_symbols_disregarded(self):
        cfg = DistanceConfig(1, 0)
        assert structure_distance("ABBABBC", "ABCABC", cfg) == 2
        assert structure_distance("ABCABC", "ABBABBC", cfg) == 2

    def test_match_file_changes_distance(self):
        with_table = DistanceConfig(2, 0, match_table=table_from(PAIR_FILE))
        without = DistanceConfig(2, 0)
        assert structure_distance("ABBB", "ABAA", with_table) == 0
        assert structure_distance("ABBB", "ABAA", without) == 1


class TestGroupsEqual:
    """One-group structures: the distance is 0 exactly when the groups are equal."""

    def test_multiset_rule(self):
        assert structure_distance("AB", "BA", DistanceConfig(2, 0)) == 0
        assert structure_distance("ABB", "BAB", DistanceConfig(3, 0)) == 0
        assert structure_distance("AA", "AB", DistanceConfig(2, 0)) == 1

    def test_table_extends_equality(self):
        cfg = DistanceConfig(2, 0, match_table=table_from(PAIR_FILE))
        assert structure_distance("AA", "BB", cfg) == 0
        assert structure_distance("AA", "AB", cfg) == 1


class TestParseMatchFile:
    def test_comments_and_blanks_ignored(self):
        table = table_from("# comment\n\nAA = BB\nBB = AA\n")
        assert "BB" in table["AA"]

    def test_multiple_right_tuples(self):
        table = table_from("AA = AB BB\nAB = AA\nBB = AA\n")
        assert table["AA"] == {"AB", "BB"}

    def test_empty_right_side_declares_nothing(self):
        assert table_from("AB =\n") == {}

    def test_symmetric_closure_warns(self):
        with pytest.warns(UserWarning):
            table = parse_match_file("AA = BB\n", 2, AB)
        assert "AA" in table["BB"]

    def test_no_transitive_closure(self):
        table = table_from("AA = AB\nAB = AA BB\nBB = AB\n")
        assert table["AA"] == {"AB"}
        assert table["AB"] == {"AA", "BB"}
        assert "AA" not in table["BB"]

    def test_same_multiset_rule_dropped_without_warning(self):
        # AT = TA restates the multiset rule, so it is no rule to close.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = parse_match_file("AT = TA\n", 2, Alphabet.from_string("AT"))
        assert table == {}

    def test_table_is_read_only(self):
        table = table_from(PAIR_FILE)
        with pytest.raises(TypeError):
            table["AB"] = frozenset({"BB"})

    def test_wrong_tuple_length(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_match_file("AAA = BB\n", 2, AB)

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_match_file("AA = BB\nAX = AA\n", 2, AB)

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_match_file("AA BB\n", 2, AB)

    def test_unit_1_rejected(self):
        with pytest.raises(ValueError):
            parse_match_file("A = B\n", 1, AB)


class TestDistanceConfig:
    def test_unit_must_be_positive(self):
        with pytest.raises(ValueError):
            DistanceConfig(0, 1)

    def test_max_distance_nonnegative(self):
        with pytest.raises(ValueError):
            DistanceConfig(1, -1)

    def test_table_requires_matching_unit(self):
        table = table_from(PAIR_FILE, unit=2)
        with pytest.raises(ValueError, match="not unit_distance 3"):
            DistanceConfig(3, 1, match_table=table)

    def test_table_partner_requires_matching_unit(self):
        with pytest.raises(ValueError, match="'BBB' has length 3, not unit_distance 2"):
            DistanceConfig(2, 1, match_table={"AA": frozenset({"BBB"})})

    def test_asymmetric_table_is_rejected(self):
        # The string route would give AA-BB 0 but BB-AA 1; GroupIndex 0 both ways.
        with pytest.raises(ValueError, match="'AA' = 'BB' has no reverse 'BB' = 'AA'"):
            DistanceConfig(2, 0, match_table={"AA": frozenset({"BB"})})
        with pytest.raises(ValueError, match="not symmetric"):
            DistanceConfig(
                2, 0, match_table={"AA": frozenset({"BB", "CC"}), "BB": frozenset({"AA"})}
            )

    def test_table_requires_unit_above_1(self):
        with pytest.raises(ValueError, match="unit_distance > 1"):
            DistanceConfig(1, 1, match_table={})

    def test_within_max_distance(self):
        cfg = DistanceConfig(2, 2)
        assert within_max_distance("ABBABC", "BABCAB", cfg)
        assert not within_max_distance("ABBABC", "BABCAB", DistanceConfig(2, 1))


class TestDistanceProperties:
    @given(words, words)
    def test_symmetry(self, s1, s2):
        cfg = DistanceConfig(2, 0)
        assert structure_distance(s1, s2, cfg) == structure_distance(s2, s1, cfg)

    @given(words)
    def test_identity(self, s):
        for unit in (1, 2, 3):
            assert structure_distance(s, s, DistanceConfig(unit, 0)) == 0

    @given(words, words, st.integers(1, 4))
    def test_bound(self, s1, s2, unit):
        d = structure_distance(s1, s2, DistanceConfig(unit, 0))
        assert 0 <= d <= min(len(s1), len(s2)) // unit

    @given(words, words)
    def test_unit_1_reduces_to_plain_mismatch_count(self, s1, s2):
        cfg = DistanceConfig(1, 0)
        expected = sum(a != b for a, b in zip(s1, s2))
        assert structure_distance(s1, s2, cfg) == expected

    @given(words, words)
    def test_table_never_increases_distance(self, s1, s2):
        table = table_from("AA = BB\nBB = AA\nAB = CC\nCC = AB\n", 2, ABC)
        base = structure_distance(s1, s2, DistanceConfig(2, 0))
        extended = structure_distance(s1, s2, DistanceConfig(2, 0, match_table=table))
        assert extended <= base

    @given(words, words, st.integers(1, 3), st.integers(0, 4), st.booleans())
    def test_edge_rule_is_the_distance_bound(self, s1, s2, unit, max_d, linked):
        # within_max_distance stops comparing early; it must still be the bound.
        table = table_from("AA = BB\nAB = CC\n", 2, ABC) if linked and unit == 2 else None
        cfg = DistanceConfig(unit, max_d, match_table=table)
        assert within_max_distance(s1, s2, cfg) == (structure_distance(s1, s2, cfg) <= max_d)

    @given(words, st.integers(1, 3))
    def test_prefix_extension_keeps_distance(self, s, unit):
        # Appending symbols to one side only adds disregarded groups.
        cfg = DistanceConfig(unit, 0)
        assert structure_distance(s, s + "ABC", cfg) == 0
