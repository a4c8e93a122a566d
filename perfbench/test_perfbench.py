"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import Checker, network_record  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from run import END_TO_END, invoke, pass_plan, run_pass  # noqa: E402
from tracer import PER_LAYER, NetworkClock, Tracer  # noqa: E402
from workloads import WORKLOADS, calls  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def tiny_pass(name: str, out: Path, tracer: Tracer | None = None):
    pass_calls = calls(name, 3, out, tiny=True)
    clock = NetworkClock()
    clock.install()
    if tracer is not None:
        tracer.install()
    try:
        errors = run_pass(pass_calls, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
    return pass_calls, errors


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, *_ in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_the_number_of_passes_depends_only_on_the_workload_and_seconds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name, workload in WORKLOADS.items():
        plain = pass_plan(name, spec["run_seconds"], trace=False)
        assert plain == [False] * workload.passes(spec["run_seconds"])
        traced = pass_plan(name, spec["run_seconds"], trace=True)
        assert traced[::2] == [False] * (len(traced) // 2)
        assert traced[1::2] == [True] * (len(traced) // 2) and len(traced) >= 4
    assert WORKLOADS["metrics-dense"].passes(spec["run_seconds"]) >= 2  # the repeat check runs


def test_times_are_scaled_gap_by_gap_without_the_kernel():
    host = HostSpeed()
    r = REFERENCE_S
    # Samples at 0, 1 and 5 s; the host runs the kernel at 1x, half and 2x speed.
    host.starts, host.durations = [0.0, 1.0, 5.0], [r, 2 * r, r / 2]
    assert host.scaled(r, 1.0) == pytest.approx((1.0 - r) / 1.5)
    assert host.scaled(1.0 + 2 * r, 5.0) == pytest.approx((4.0 - 2 * r) / 1.25)
    # Across a sample, its own time is left out.
    assert host.scaled(0.5, 2.0) == pytest.approx(0.5 / 1.5 + (1.0 - 2 * r) / 1.25)
    with pytest.raises(ValueError):
        host.scaled(4.0, 6.0)

    clock = NetworkClock()
    clock.marks = [(True, 0.5), (True, 0.75), (False, 2.0)]
    assert clock.durations() == [0.25, 1.25]
    assert clock.durations(host.scaled) == pytest.approx(
        [0.25 / 1.5, 0.25 / 1.5 + (1.0 - 2 * r) / 1.25]
    )


def test_sampling_runs_during_a_pass_and_stops_after_it(tmp_path):
    import signal

    host = HostSpeed()
    host.start()
    try:
        pass_calls, errors = tiny_pass("metrics-dense", tmp_path)
    finally:
        host.stop()
    assert errors == [None] * len(pass_calls)
    assert len(host.durations) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_fails_without_the_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "grow-sparse", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _corrupt_edges(directory: Path) -> None:
    """Join the first and last node: far apart in a grown network."""
    path = directory / "edges.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    n = int(lines[1].split()[2])
    lines.insert(2, f"0\t{n - 1}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_clean_outputs_pass_and_a_corrupted_artifact_fails(tmp_path, workload):
    pass_calls, errors = tiny_pass(workload, tmp_path)
    assert errors == [None] * len(pass_calls)
    clean = Checker({}, seed=3).check_pass(pass_calls, errors, tmp_path)
    assert clean.failed == 0, clean.problems

    victim = pass_calls[0].out
    if pass_calls[0].kind == "experiment":
        victim = victim / f"seed_{pass_calls[0].seeds[0]:05d}"
    _corrupt_edges(victim)
    corrupted = Checker({}, seed=3).check_pass(pass_calls, errors, tmp_path)
    assert corrupted.failed >= 1
    assert corrupted.attempted == clean.attempted

    # A later pass that differs from the first counts as failed too.
    repeat = Checker.check_repeat(clean, pass_calls, errors, tmp_path)
    assert repeat.failed >= 1


def test_a_later_pass_with_a_different_summary_fails(tmp_path):
    pass_calls, errors = tiny_pass("experiment-small", tmp_path)
    first = Checker({}, seed=3).check_pass(pass_calls, errors, tmp_path)
    assert first.failed == 0, first.problems
    assert Checker.check_repeat(first, pass_calls, errors, tmp_path).failed == 0

    summary = pass_calls[0].out / "summary.json"
    report = json.loads(summary.read_text(encoding="utf-8"))
    report["n_seeds"] += 1
    summary.write_text(json.dumps(report), encoding="utf-8")
    repeat = Checker.check_repeat(first, pass_calls, errors, tmp_path)
    assert repeat.failed == 1 and "summary.json" in repeat.problems[0]


def test_reference_digest_and_metric_mismatch_fail(tmp_path):
    pass_calls, errors = tiny_pass("grow-sparse", tmp_path)
    key = pass_calls[0].out.relative_to(tmp_path).as_posix()
    record = network_record(pass_calls[0].out)
    assert Checker({key: record}, 3).check_pass(pass_calls, errors, tmp_path).failed == 0

    bad_metric = json.loads(json.dumps(record))
    bad_metric["metrics"]["average_clustering"] *= 1 + 1e-6
    assert Checker({key: bad_metric}, 3).check_pass(pass_calls, errors, tmp_path).failed == 1

    (pass_calls[0].out / "structures.tsv").write_text("# snm structures v1\n", encoding="utf-8")
    assert Checker({key: record}, 3).check_pass(pass_calls, errors, tmp_path).failed == 1


def test_corrupted_curves_and_missing_files_fail_without_crashing(tmp_path):
    pass_calls, errors = tiny_pass("metrics-dense", tmp_path)
    curve = pass_calls[1].out / "comparison_average_degree.tsv"
    lines = curve.read_text(encoding="utf-8").splitlines()
    c, sn, ba = lines[-1].split("\t")
    lines[-1] = f"{c}\t{float(sn) + 0.5}\t{ba}"
    curve.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (pass_calls[0].out / "metrics.json").unlink()
    outcome = Checker({}, 3).check_pass(pass_calls, errors, tmp_path)
    # generate's network, and compare-ba's structured-node curves (which
    # need the missing report) fail; the BA curves and both calls pass.
    assert outcome.failed == 2, outcome.problems


def test_a_raising_call_is_a_failed_operation(tmp_path):
    # Batch growth saturates near 200 nodes, so a 300-node checkpoint makes
    # compare-ba raise RuntimeError.
    argv = ("compare-ba", "--instance", "src/snmodel/instances/batch.instance",
            "--n-seeds", "1", "--checkpoints", "300", "--out", str(tmp_path / "cmp"))
    error = invoke(argv)
    assert error is not None and "RuntimeError" in error


def test_span_children_fit_inside_their_parent(tmp_path):
    from snmodel import experiments, growth

    original = growth.apply_random_edit
    original_init = growth.GroupIndex.__init__
    original_run_single = experiments.run_single
    tracer = Tracer()
    for name in WORKLOADS:
        tracer.run_id += 1
        tiny_pass(name, tmp_path / name, tracer)
    # uninstall restores every name, also where the clock and the tracer
    # both wrapped the same function
    assert growth.apply_random_edit is original
    assert growth.GroupIndex.__init__ is original_init
    assert experiments.run_single is original_run_single

    a = tracer.arrays()
    assert a["start"].shape[0] > 1000
    duration = a["end"] - a["start"]
    assert np.all(duration >= 0)
    assert np.all(tracer.self_times() >= -1e-9)
    child = np.flatnonzero(a["parent"] >= 0)
    parent = a["parent"][child]
    assert np.all(a["start"][child] >= a["start"][parent])
    assert np.all(a["end"][child] <= a["end"][parent])
    assert np.all(a["run"][child] == a["run"][parent])

    layers = tracer.layer_metrics(n_passes=1)
    assert layers["metrics.compute_metrics.sweeps_per_call"] == 2
    assert 0 < layers["growth.neighbour_scan.hit_ratio"] < 1
    assert layers["growth.attempts"] == (
        layers["growth.accepted"]
        + layers["growth.rejected_duplicate"]
        + layers["growth.rejected_isolated"]
        + layers["growth.rejected_edit_failed"]
    )
