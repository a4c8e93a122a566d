"""Parser fuzzing: bad text is one ValueError, and render -> parse is the identity.

Every number the generated text holds is at most 10**6: a node count of
billions would make the edge-list parser allocate a list of that length.
Free text is drawn without decimal digits, which ``int`` also accepts in
other scripts, so the numbers come only from the bounded tokens.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snmodel import fileio
from snmodel.distance import parse_match_file
from snmodel.experiments import (
    INSTANCE_KEYS,
    config_from_mapping,
    parse_instance_file,
    parse_key_values,
)
from snmodel.network import Network
from snmodel.structures import Alphabet

from oracles import edge_set, from_pairs, parse_edge_list_by_line

MAX_NUMBER = 10**6

#: Text without decimal digits, so it never spells a number.
free_text = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)
number = st.integers(-10, MAX_NUMBER).map(str)
token = st.one_of(
    free_text,
    number,
    st.sampled_from(["#", "# nodes", "nodes", "=", "\t", "AB", "BA", "ABC", "-0", "+1"]),
)
separator = st.sampled_from([" ", "\t", " \t "])


@st.composite
def lines_of_tokens(draw) -> str:
    """Lines of separated tokens: small numbers, format keywords and free text."""
    lines = draw(st.lists(st.lists(token, max_size=4), max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(draw(separator).join(line) for line in lines)


#: Arbitrary text for the parsers that allocate nothing by a number they read.
any_text = st.one_of(st.text(), lines_of_tokens())


def raises_only_value_error(parse, text: str) -> None:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parse(text)
    except ValueError:
        pass


class TestArbitraryText:
    @given(lines_of_tokens())
    @settings(deadline=None)
    def test_edge_list(self, text):
        raises_only_value_error(fileio.parse_edge_list, text)

    @given(any_text)
    @settings(deadline=None)
    def test_key_values(self, text):
        raises_only_value_error(parse_key_values, text)

    @given(any_text, st.integers(-1, 4), st.sampled_from(["AB", "ABC"]))
    @settings(deadline=None)
    def test_match_file(self, text, unit, symbols):
        raises_only_value_error(lambda t: parse_match_file(t, unit, Alphabet.from_string(symbols)), text)

    @given(
        st.dictionaries(
            st.sampled_from([key for key in INSTANCE_KEYS if key != "match_file"]),
            st.one_of(free_text, number, st.sampled_from(["1.0", "0.5", "nan", "inf", "batch", "AB"])),
        ),
        any_text,
    )
    @settings(deadline=None)
    def test_instance_file(self, mapping, noise):
        # A match_file value names a file to read, so it is left out: a path
        # that does not exist is an OSError, not a parse error.
        assume("match_file" not in noise)
        lines = [f"{key} = {value}" for key, value in mapping.items()]
        for text in ("\n".join(lines), "\n".join(lines + [noise])):
            raises_only_value_error(parse_instance_file, text)


@st.composite
def networks(draw) -> Network:
    n = draw(st.integers(0, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))))
    edges = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}) if n else []
    return from_pairs(n, edges)


@st.composite
def valid_instance_mappings(draw) -> dict[str, str]:
    """Key/value text of a valid configuration, optional keys included at random."""
    symbols = "".join(draw(st.lists(st.sampled_from("ABCDEFGH"), min_size=2, max_size=6, unique=True)))
    symbol_words = st.text(st.sampled_from(symbols), min_size=1, max_size=12)
    initials = draw(st.lists(symbol_words, min_size=1, max_size=3, unique=True))
    target = draw(st.integers(len(initials), 1000))
    kind = draw(st.sampled_from(["p_mutate", "p_insert", "p_delete", "p_duplicate"]))
    mapping = {
        "alphabet": symbols,
        "initial": "; ".join(initials),
        kind: "1.0",
        "unit_distance": str(draw(st.integers(1, 3))),
        "max_distance": str(draw(st.integers(0, 3))),
        "target_nodes": str(target),
    }
    optional = {
        "max_attempts": st.one_of(st.just(""), st.integers(target, 50 * target).map(str)),
        "mode": st.sampled_from(["incremental", "batch"]),
        "prune_min_degree": st.integers(0, 5).map(str),
        "seed": st.integers(0, MAX_NUMBER).map(str),
        "n_seeds": st.integers(1, 5).map(str),
        "checkpoint_interval": st.integers(0, 100).map(str),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        mapping[key] = draw(optional[key])
    return mapping


class TestRoundTrips:
    @given(networks())
    @settings(deadline=None)
    def test_edge_list(self, net):
        loaded = fileio.parse_edge_list(fileio.render_edge_list(net))
        assert loaded.n_nodes == net.n_nodes
        assert edge_set(loaded) == edge_set(net)
        assert fileio.render_edge_list(loaded) == fileio.render_edge_list(net)

    @given(valid_instance_mappings())
    @settings(deadline=None)
    def test_instance_file(self, mapping):
        text = "".join(f"{key} = {value}\n" for key, value in mapping.items())
        assert parse_key_values(text) == mapping
        assert parse_instance_file(text) == config_from_mapping(mapping)


#: Ids and node counts the reader must reject, or accept without allocating
#: by them: negatives, MAX_NODES itself, past int64 on both sides, spellings
#: ``int`` accepts, and non-integers.
odd_id = st.sampled_from(
    ["-1", "-7", str(2**63 - 1), str(2**63), str(2**64), str(-(2**63) - 1), "+2", "1_0", "x", "0x1"]
)
edge_id = st.one_of(st.integers(0, 6).map(str), odd_id)
odd_count = st.sampled_from(["-1", "x", "1.5", "+3", str(2**63), str(2**64)])


@st.composite
def edge_list_lines(draw) -> str:
    """Edge-list text: valid pairs with copies either way round, and up to two faulty lines."""
    small = st.integers(0, 6)
    pairs = draw(st.lists(st.tuples(small, small).filter(lambda p: p[0] != p[1]), max_size=12))
    lines = [f"{u}\t{v}" for u, v in pairs]
    lines += draw(st.lists(st.one_of(
        st.integers(0, 12).map(lambda c: f"# nodes {c}"),
        st.sampled_from(["", "  ", "# comment", "#nodes 3", "# nodes"]),
    ), max_size=4))
    lines = draw(st.permutations(lines))
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []:
        lines.insert(draw(st.integers(0, len(lines))), f"{v} {u}" if draw(st.booleans()) else f"{u} {v}")
    for line in draw(st.lists(st.one_of(
        st.tuples(edge_id, edge_id).map(" ".join),
        small.map(lambda i: f"{i}\t{i}"),
        odd_count.map(lambda c: f"# nodes {c}"),
        st.lists(edge_id, min_size=1, max_size=3).map(" ".join),
    ), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


def outcome(parse, text: str) -> tuple:
    """The error text, or the network's structures and edges; and the warnings, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = parse(text)
            result = (net.structures, net.edge_u.tolist(), net.edge_v.tolist())
        except ValueError as exc:
            result = ("error", str(exc))
    return result, [str(w.message) for w in caught]


class TestEdgeListAgainstLineReader:
    """``parse_edge_list`` gives what the line-at-a-time reader gives."""

    @given(edge_list_lines())
    @settings(deadline=None, max_examples=500)
    def test_same_outcome(self, text):
        assert outcome(fileio.parse_edge_list, text) == outcome(parse_edge_list_by_line, text)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("0\t1\n-1\t2\n0 1 2", "line 2: ids must be >= 0"),
            ("# nodes x\n3\t3", "line 1: malformed node count"),
            ("3\t3\n# nodes -1", "line 1: self-loop on node 3"),
            (f"{2**63}\t{2**63}\n1\t1", f"line 1: ids must be below {fileio.MAX_NODES}"),
            ("0 1\n1 0\n1 1", "line 3: self-loop on node 1"),
        ],
    )
    def test_the_first_faulty_line_is_named(self, text, error):
        expected = outcome(parse_edge_list_by_line, text)
        assert expected[0] == ("error", error)
        assert outcome(fileio.parse_edge_list, text) == expected
