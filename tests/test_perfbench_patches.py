"""The benchmark's tracer must find every name it wraps, and put each back."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from snmodel import cli, experiments, fileio, growth, metrics
from snmodel.network import Network

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Every module and class whose attributes the tracer may replace.
OWNERS = (cli, experiments, fileio, growth, metrics, growth.GroupIndex, Network)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_patched_attribute():
    tracer = _load_tracer()
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    clock, spans = tracer.NetworkClock(), tracer.Tracer()
    # The order of the benchmark's run: the clock first, the tracer inside it.
    clock.install()
    try:
        spans.install()
        try:
            patched = [
                (owner, attr)
                for owner, attr, _ in clock._patches._originals + spans._patches._originals
            ]
            assert patched
            for owner, attr in patched:
                assert vars(owner)[attr] is not before[owner][attr], attr
        finally:
            spans.uninstall()
    finally:
        clock.uninstall()
    for owner, attr in patched:
        assert vars(owner)[attr] is before[owner][attr], attr
    assert {owner: dict(vars(owner)) for owner in OWNERS} == before
