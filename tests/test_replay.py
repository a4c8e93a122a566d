"""Growth's accept and reject decisions against a replay by string distance.

``oracles.replay_growth`` draws the same random stream as growth and decides
duplicates, isolation and edges on the words themselves. A wrong decision
anywhere shifts every later draw, so equal structures, edges and trace
counters say that growth decided every attempt as the replay did.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmodel import growth, instances_dir
from snmodel.distance import DistanceConfig, parse_match_file, within_max_distance
from snmodel.experiments import load_instance_file
from snmodel.growth import BATCH, INCREMENTAL, GroupIndex, GrowthTrace, Instance, grow
from snmodel.structures import Alphabet, EditProbabilities

from oracles import edge_pairs, matrix_edges, replay_growth

#: Not transitive: AB = CC = DD, yet AB is not DD, and BA (= AB) is not CC.
LINKING = "AA = BB\nAB = CC\nCC = DD\n"


def assert_replays(instance: Instance) -> GrowthTrace:
    """Assert that growth and its replay agree; return the trace."""
    net, trace = grow(instance)
    words, edges, replayed = replay_growth(instance)
    assert net.structures == words
    assert sorted(edge_pairs(net)) == edges
    assert trace == replayed
    return trace


def shipped(name: str):
    return load_instance_file(instances_dir() / f"{name}.instance").instance


@pytest.fixture
def loops(monkeypatch) -> list[str]:
    """The growth loop each run takes from now on: "mutation" or "general".

    Mutation-only growth that needs no isolation test writes its rows after
    its loop; every other run binds an edit drawer.
    """
    taken: list[str] = []
    add_mutants, drawer = GroupIndex._add_mutants, growth.edit_drawer

    def mutation_loop(*args):
        taken.append("mutation")
        return add_mutants(*args)

    def general_loop(*args):
        taken.append("general")
        return drawer(*args)

    monkeypatch.setattr(GroupIndex, "_add_mutants", mutation_loop)
    monkeypatch.setattr(growth, "edit_drawer", general_loop)
    return taken


#: comparison and pruned run at 2000 nodes: their edges come from the
#: matrix rule, about 0.2 s and 0.4 s a seed.
@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ("celegans", "ecoli", "comparison", "pruned") for seed in (1, 2, 3)],
)
def test_shipped_instance_replays(name, seed, loops):
    instance = replace(shipped(name), seed=seed)
    if name in ("comparison", "pruned"):
        instance = replace(instance, target_nodes=2000, max_attempts=2000)
    assert assert_replays(instance).accepted > 0
    # ecoli also inserts duplicated segments; the others grow by mutation alone.
    assert loops == ["general" if name == "ecoli" else "mutation"]


def test_mutation_only_growth_stops_once_it_holds_every_word(loops):
    # Over AB, lengths 2 and 3 give 4 + 8 = 12 words, and mutants reach them all.
    instance = Instance(
        alphabet=Alphabet.from_string("AB"),
        initial_structures=("AB", "ABA"),
        probs=EditProbabilities(mutate=1.0),
        distance=DistanceConfig(1, 1),
        target_nodes=50,
        seed=3,
    )
    trace = assert_replays(instance)
    assert trace.accepted == 10
    assert trace.saturated
    assert trace.attempts < instance.attempt_budget
    assert loops == ["mutation"]


def test_batch_instance_replays(loops):
    # Drawing stops early: the initial word has 205 distinct single edits.
    instance = shipped("batch")
    assert assert_replays(instance).attempts < instance.attempt_budget
    assert loops == ["mutation"]


def mutants_of(initial: tuple[str, ...], **overrides) -> Instance:
    """Mutation-only growth over ABCD at unit 2 and max_distance 1, with *overrides*."""
    params = dict(
        alphabet=Alphabet.from_string("ABCD"),
        initial_structures=initial,
        probs=EditProbabilities(mutate=1.0),
        distance=DistanceConfig(2, 1),
        target_nodes=120,
        max_attempts=600,
    )
    params.update(overrides)
    return Instance(**params)


@pytest.mark.parametrize("seed", [1, 2])
def test_mutation_only_at_max_distance_0_rejects_isolated_mutants(seed, loops):
    # A mutant of a full group lies at distance 1 from its template, so it
    # must pass the isolation test of the general loop.
    instance = mutants_of(("ABAB", "BACD", "ABCDA"), distance=DistanceConfig(2, 0), seed=seed)
    trace = assert_replays(instance)
    assert trace.rejected_isolated > 0
    assert trace.accepted > 0
    assert loops == ["general"]


@pytest.mark.parametrize("mode", [INCREMENTAL, BATCH])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mutations_in_the_trailing_partial_group(mode, seed, loops):
    # A mutation of the last symbol of an odd-length word changes no group id.
    instance = mutants_of(("ABCDA", "DCBADCB"), mode=mode, seed=seed)
    assert_replays(instance)
    # Two words that differ in their last symbol alone: one such mutation at least.
    heads = [word[:-1] for word in replay_growth(instance)[0]]
    assert len(set(heads)) < len(heads)
    assert loops == ["mutation"]


@pytest.mark.parametrize("mode", [INCREMENTAL, BATCH])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mutation_only_growth_with_a_linking_table(mode, seed, loops):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = parse_match_file(LINKING, 2, Alphabet.from_string("ABCD"))
    distance = DistanceConfig(2, 1, match_table=table)
    assert_replays(mutants_of(("AABBCCDD", "ABCDDCBA"), distance=distance, mode=mode, seed=seed))
    assert loops == ["mutation"]


@pytest.mark.parametrize("max_distance", [0, 1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_mutants_of_initial_words_of_several_lengths(max_distance, seed, loops):
    instance = mutants_of(
        ("A", "ABC", "ABCD", "DCBADC", "ABCDABCDA"),
        distance=DistanceConfig(2, max_distance),
        mode=BATCH,
        seed=seed,
    )
    trace = assert_replays(instance)
    assert trace.accepted > 0
    assert loops == ["mutation"]


@st.composite
def instances(draw) -> Instance:
    symbols = draw(st.sampled_from(["AB", "ABC", "ABCD"]))
    alphabet = Alphabet.from_string(symbols)
    unit = draw(st.integers(1, 3))
    table = None
    if symbols == "ABCD" and unit == 2 and draw(st.booleans()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = parse_match_file(LINKING, unit, alphabet)
    weights = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
    initial = draw(
        st.lists(st.text(symbols, min_size=1, max_size=12), min_size=1, max_size=3, unique=True)
    )
    target = draw(st.integers(len(initial), 60))
    return Instance(
        alphabet=alphabet,
        initial_structures=tuple(initial),
        probs=EditProbabilities(*(w / sum(weights) for w in weights)),
        distance=DistanceConfig(unit, draw(st.integers(0, 2)), match_table=table),
        target_nodes=target,
        max_attempts=draw(st.integers(target, 5 * target)),
        mode=draw(st.sampled_from([INCREMENTAL, BATCH])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(instances())
@settings(max_examples=200, deadline=None)
def test_random_configs_replay(instance):
    assert_replays(instance)


@given(
    st.lists(st.text("ABCDE", min_size=1, max_size=16), max_size=30),
    st.integers(1, 4),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_matrix_edges_are_the_string_rule(words, unit, max_distance):
    # The replay's edge rule without a match table, against the string route.
    cfg = DistanceConfig(unit, max_distance)
    assert matrix_edges(words, cfg) == [
        (u, v) for u in range(len(words)) for v in range(u + 1, len(words))
        if within_max_distance(words[u], words[v], cfg)
    ]
