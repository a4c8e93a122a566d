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

from snmodel import instances_dir
from snmodel.distance import DistanceConfig, parse_match_file
from snmodel.experiments import load_instance_file
from snmodel.growth import BATCH, INCREMENTAL, GrowthTrace, Instance, grow
from snmodel.structures import Alphabet, EditProbabilities

from oracles import edge_pairs, replay_growth

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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["celegans", "ecoli"])
def test_shipped_instance_replays(name, seed):
    assert_replays(replace(shipped(name), seed=seed))


def test_mutation_only_growth_stops_once_it_holds_every_word():
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


def test_batch_instance_replays():
    # Drawing stops early: the initial word has 205 distinct single edits.
    instance = shipped("batch")
    assert assert_replays(instance).attempts < instance.attempt_budget


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
