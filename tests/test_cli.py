"""End-to-end runs of the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing.connection
import os
import pickle
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
import warnings
from multiprocessing.connection import Connection
from pathlib import Path

import pytest

import snmodel
from snmodel import cli, experiments, fileio, instances_dir, metrics
from snmodel.cli import _config_from_args, build_parser, main
from snmodel.experiments import INSTANCE_KEYS
from snmodel.network import Network

from oracles import from_pairs

INSTANCE = """\
alphabet = ABC
initial = ABCABC
p_mutate = 1.0
unit_distance = 2
max_distance = 1
target_nodes = 30
seed = 5
"""


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "small.instance"
    path.write_text(INSTANCE)
    return path


class TestGenerate:
    def test_writes_artifacts(self, tmp_path, instance_file, capsys):
        out = tmp_path / "run"
        assert main(["generate", "--instance", str(instance_file), "--out", str(out)]) == 0
        net = fileio.read_edge_list(out / "edges.tsv")
        assert net.n_nodes == 30
        assert (out / "metrics.json").is_file()
        assert (out / "structures.tsv").is_file()
        assert "30 nodes" in capsys.readouterr().out

    def test_shortfall_is_reported_on_stderr(self, tmp_path, capsys):
        # At distance 0 every candidate is isolated, so growth stays at the
        # initial structure; the run still succeeds and writes its artifacts.
        out = tmp_path / "run"
        code = main([
            "generate", "--alphabet", "AB", "--initial", "ABAB", "--p-mutate", "1",
            "--unit-distance", "2", "--max-distance", "0", "--target-nodes", "3",
            "--max-attempts", "25", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: growth stopped at 1 of 3 target nodes after 25 attempts\n"
        assert "wrote network with 1 nodes" in captured.out
        assert fileio.read_edge_list(out / "edges.tsv").n_nodes == 1

    def test_flag_overrides_file(self, tmp_path, instance_file):
        out = tmp_path / "run"
        code = main([
            "generate",
            "--instance", str(instance_file),
            "--target-nodes", "12",
            "--out", str(out),
        ])
        assert code == 0
        assert fileio.read_edge_list(out / "edges.tsv").n_nodes == 12

    def test_works_without_instance_file(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "generate",
            "--alphabet", "AB",
            "--initial", "ABAB",
            "--p-mutate", "1.0",
            "--unit-distance", "2",
            "--max-distance", "1",
            "--target-nodes", "10",
            "--out", str(out),
        ])
        assert code == 0
        assert fileio.read_edge_list(out / "edges.tsv").n_nodes == 10

    def test_invalid_config_reports_error(self, tmp_path, instance_file, capsys):
        code = main([
            "generate",
            "--instance", str(instance_file),
            "--p-mutate", "0.5",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


#: A valid base configuration; each schema test replaces one of its keys.
BASE_KEYS = {
    "alphabet": "ABC",
    "initial": "ABCABC",
    "p_mutate": "0.4",
    "p_insert": "0.2",
    "p_delete": "0.2",
    "p_duplicate": "0.2",
    "unit_distance": "2",
    "max_distance": "1",
    "target_nodes": "30",
    "seed": "5",
}

#: For every instance key, a value that differs from its default and keeps
#: the base configuration valid.
KEY_VALUES = {
    "alphabet": "ABCD",
    "initial": "ABCABC; CBACBA",
    "p_mutate": "0.4",
    "p_insert": "0.2",
    "p_delete": "0.2",
    "p_duplicate": "0.2",
    "unit_distance": "3",
    "max_distance": "2",
    "match_file": None,  # an absolute path, made per test
    "target_nodes": "40",
    "max_attempts": "100",
    "mode": "batch",
    "prune_min_degree": "2",
    "seed": "9",
    "n_seeds": "3",
    "checkpoint_interval": "10",
}


def _cli_config(*argv: str):
    return _config_from_args(build_parser().parse_args(["generate", *argv, "--out", "unused"]))


def _write_instance(path, mapping):
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    return path


class TestInstanceKeys:
    def test_every_key_has_a_test_value(self):
        assert list(KEY_VALUES) == list(INSTANCE_KEYS)

    @pytest.mark.parametrize("key", list(INSTANCE_KEYS))
    def test_flag_equals_file_value(self, tmp_path, key):
        value = KEY_VALUES[key]
        if key == "match_file":
            value = str(_write_instance(tmp_path / "pairs.txt", {"AB": "BC", "BC": "AB"}))
        base = {k: v for k, v in BASE_KEYS.items() if k != key}
        from_file = _cli_config(
            "--instance", str(_write_instance(tmp_path / "file.instance", {**base, key: value}))
        )
        without_key = str(_write_instance(tmp_path / "flag.instance", base))
        from_flag = _cli_config("--instance", without_key, "--" + key.replace("_", "-"), value)
        assert from_flag == from_file
        try:
            unset = _cli_config("--instance", without_key)
        except ValueError:  # a required key, or probabilities short of 1
            unset = None
        assert from_flag != unset

    @pytest.mark.parametrize(
        "argv",
        [
            "generate --instance {instance} --out {out} --seed x",
            "generate --instance {instance} --out {out} --target-nodes 1.5",
            "generate --instance {instance} --out {out} --p-mutate most",
            "generate --instance {instance} --out {out} --fit-k-min x",
            "metrics --edges {edges} --fit-k-min 2.5",
            "experiment --instance {instance} --out {out} --fit-k-min x",
            "compare-ba --instance {instance} --out {out} --ba-clique x",
            "compare-ba --instance {instance} --out {out} --ba-edges 1e3",
            "compare-ba --instance {instance} --out {out} --checkpoints 10,x",
            "compare-ba --instance {instance} --out {out} --checkpoints 0",
            "compare-ba --instance {instance} --out {out} --checkpoints -5",
            "prune --edges {edges} --out {out} --min-degree two",
        ],
    )
    def test_bad_number_flag_is_one_error_line(self, tmp_path, instance_file, capsys, argv):
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n1\t2\n")
        paths = {"instance": instance_file, "edges": edges, "out": tmp_path / "out"}
        args = [token.format(**paths) for token in argv.split()]
        flag, value = args[-2:]
        assert main(args) == 1
        err = capsys.readouterr().err
        key = flag[2:].replace("-", "_")
        assert err.startswith(f"error: key '{key}': cannot parse value '{value}'")
        assert len(err.strip().splitlines()) == 1

    def test_empty_match_file_flag_means_no_table(self, tmp_path, instance_file):
        from_flag = _cli_config("--instance", str(instance_file), "--match-file", "")
        with_empty_key = tmp_path / "empty.instance"
        with_empty_key.write_text(INSTANCE + "match_file =\n")
        assert from_flag == _cli_config("--instance", str(with_empty_key))
        assert from_flag.instance.distance.match_table is None

    def test_readme_table_lists_every_key(self):
        keys = re.findall(r"^\| `(\w+)` \|", _readme_cli_section(), flags=re.MULTILINE)
        assert keys == list(INSTANCE_KEYS)

    def test_readme_cli_examples_parse(self):
        # Only parsed, not run: a documented flag the parser dropped fails here.
        block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("snm ")]
        assert commands
        for command in commands:
            build_parser().parse_args(command[1:])


def _readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


class TestMetrics:
    def test_stdout_report(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n1\t2\n0\t2\n")
        assert main(["metrics", "--edges", str(edges)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_nodes"] == 3
        assert payload["average_degree"] == 2.0

    def test_written_report_with_fit(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("\n".join(f"0\t{i}" for i in range(1, 9)) + "\n1\t2\n")
        out = tmp_path / "metrics.json"
        assert main([
            "metrics", "--edges", str(edges), "--out", str(out), "--fit-k-min", "1",
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["fitted_slope"] is not None


def test_runtime_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency. A fresh interpreter that runs two
    # subcommands also sees a lazy import. Nor do they load numpy.ma, which
    # np.unique imports on first use: 1.7 MB of resident memory.
    out = tmp_path / "run"
    script = f"""
import sys
from snmodel import instances_dir
from snmodel.cli import main
out = {str(out)!r}
assert main(["generate", "--instance", str(instances_dir() / "celegans.instance"), "--out", out]) == 0
assert main(["metrics", "--edges", out + "/edges.tsv", "--out", out + "/again.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma"))
"""
    src = str(Path(snmodel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("target", ["5000", "1000000000000"])
def test_growth_ends_once_it_holds_every_word(tmp_path, target):
    # celegans mutates words of 6 two-symbol groups over AT at distance 1,
    # so it can reach all 2^12 = 4096 words and no others. Seed 1 holds
    # them after 35 622 attempts; the budget of 50 * target is not drawn.
    # A child process, so that a run that does not stop fails by timeout.
    out = tmp_path / "run"
    script = "import sys\nfrom snmodel.cli import main\nsys.exit(main(sys.argv[1:]))"
    argv = [
        "generate", "--instance", str(instances_dir() / "celegans.instance"),
        "--target-nodes", target, "--seed", "1", "--out", str(out),
    ]
    src = str(Path(snmodel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == (
        f"warning: growth stopped at 4096 of {target} target nodes after 35622 attempts\n"
    )
    assert fileio.read_edge_list(out / "edges.tsv").n_nodes == 4096


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least two usable CPUs",
)
def test_generate_is_byte_identical_on_one_cpu(tmp_path):
    # The path-length sweep runs on as many threads as the process has CPUs.
    script = """
import sys
from snmodel import instances_dir, metrics
from snmodel.cli import main
print(metrics._WORKERS)
sys.exit(main(["generate", "--instance", str(instances_dir() / "comparison.instance"), "--out", sys.argv[1]]))
"""
    cpu = min(os.sched_getaffinity(0))
    src = str(Path(snmodel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = {}
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / name)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=pin,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        workers = int(result.stdout.splitlines()[0])
        assert (workers == 1) == (name == "one")
        files[name] = [(tmp_path / name / f).read_bytes() for f in ("metrics.json", "edges.tsv")]
    assert files["one"] == files["all"]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least two usable CPUs",
)
def test_compare_ba_is_byte_identical_on_one_cpu(tmp_path):
    # A seed's prefix reports run side by side on as many threads as the process has CPUs.
    script = """
import sys
from snmodel import instances_dir, metrics
from snmodel.cli import main
print(metrics._WORKERS)
sys.exit(main(["compare-ba", "--instance", str(instances_dir() / "comparison.instance"),
               "--n-seeds", "1", "--out", sys.argv[1]]))
"""
    cpu = min(os.sched_getaffinity(0))
    src = str(Path(snmodel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    trees = {}
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / name)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=pin,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        workers = int(result.stdout.splitlines()[0])
        assert (workers == 1) == (name == "one")
        trees[name] = _tree(tmp_path / name)
    assert len(trees["all"]) == 3
    assert trees["one"] == trees["all"]


class TestExperiment:
    def test_summary_written(self, tmp_path, instance_file, capsys):
        out = tmp_path / "exp"
        code = main([
            "experiment",
            "--instance", str(instance_file),
            "--n-seeds", "2",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["n_seeds"] == 2
        assert "within 10%" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--reference", "[1, 2]"], "error: reference must map metric names to numbers"),
            (["--reference", "null"], "error: reference must map metric names to numbers"),
            (
                ["--reference", '{"means": null}'],
                "error: reference must map metric names to numbers",
            ),
            (
                ["--reference", '{"average_degree": {"a": 1}}'],
                "error: reference value of 'average_degree' must be a number",
            ),
            (
                ["--reference", '{"means": {"average_degree": null}}'],
                "error: reference value of 'average_degree' must be a number",
            ),
            (
                ["--referenced-metrics", "bogus"],
                "error: unknown metric 'bogus'; known metrics: n_nodes",
            ),
            # Every comparison with NaN is false, so a non-finite reference
            # would let every seed qualify; JSON reads 1e400 as infinity.
            (
                ["--reference", '{"average_degree": NaN}'],
                "error: reference value of 'average_degree' must be finite",
            ),
            (
                ["--reference", '{"means": {"average_degree": Infinity}}'],
                "error: reference value of 'average_degree' must be finite",
            ),
            (
                ["--reference", '{"average_degree": 1e400}'],
                "error: reference value of 'average_degree' must be finite",
            ),
            # An integer too large for a float overflows instead.
            (
                ["--reference", '{"average_degree": 1' + "0" * 400 + "}"],
                "error: reference value of 'average_degree' must be finite",
            ),
            # Naming no referenced metric, the reference would let every seed qualify.
            (["--reference", '{"means": {}}'], "error: reference names none of the metrics"),
            (["--reference", '{"bogus_metric": 3}'], "error: reference names none of the metrics"),
            # json's decoder recurses once per level and would end in a RecursionError.
            (["--reference", "[" * 100_000 + "]" * 100_000], "error: reference nests too deeply"),
        ],
        ids=[
            "list", "null", "null-means", "object-value", "null-value", "unknown-metric",
            "nan-value", "infinite-value", "overflowing-value", "overflowing-int", "empty-means",
            "unreferenced-only", "deep-nesting",
        ],
    )
    def test_bad_reference_is_one_error_line(self, tmp_path, instance_file, capsys, argv, message):
        if argv[0] == "--reference":
            reference = tmp_path / "reference.json"
            reference.write_text(argv[1])
            argv = ["--reference", str(reference)]
        code = main([
            "experiment", "--instance", str(instance_file), "--n-seeds", "1",
            *argv, "--out", str(tmp_path / "exp"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.strip().splitlines()) == 1


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under *root*, by its path relative to *root*."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least two usable CPUs",
)
def test_experiment_is_byte_identical_on_one_cpu(tmp_path):
    # With two CPUs a multi-seed experiment forks one child that grows seeds
    # beside the caller and writes them all; on one it runs in-process. Twelve
    # celegans seeds let the child grow some. The script counts the forks and
    # checks after each experiment that no child is left.
    script = """
import os, sys
from snmodel import instances_dir, metrics
from snmodel.cli import main
fork, forks = os.fork, []
os.fork = lambda: forks.append(None) or fork()
for name, n_seeds in (("celegans", "12"), ("ecoli", "3"), ("batch", "2")):
    instance = str(instances_dir() / f"{name}.instance")
    argv = ["experiment", "--instance", instance, "--n-seeds", n_seeds, "--out", f"{sys.argv[1]}/{name}"]
    assert main(argv) == 0
    try:
        os.waitpid(-1, os.WNOHANG)
        sys.exit("a child is left")
    except ChildProcessError:
        pass
print(metrics._WORKERS, len(forks))
"""
    cpu = min(os.sched_getaffinity(0))
    src = str(Path(snmodel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    trees = {}
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / name)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=pin,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        workers, forks = map(int, result.stdout.splitlines()[-1].split())
        assert (workers == 1) == (name == "one")
        assert forks == (0 if name == "one" else 3)
        trees[name] = _tree(tmp_path / name)
    assert "ecoli/seed_00003/edges.tsv" in trees["all"]
    assert "batch/summary.json" in trees["all"]
    assert trees["one"] == trees["all"]
    _assert_no_child_left()


class TestExperimentWriter:
    """The child that grows seeds beside the caller and writes them all: its failures,
    the caller's, and no child left behind."""

    @pytest.fixture()
    def forks(self, monkeypatch) -> list[None]:
        calls: list[None] = []
        fork = os.fork if hasattr(os, "fork") else None
        if fork is not None:
            monkeypatch.setattr(os, "fork", lambda: calls.append(None) or fork())
        return calls

    @staticmethod
    def forked(n_seeds: int) -> int:
        return int(
            hasattr(os, "fork")
            and metrics._WORKERS >= 2
            and n_seeds >= 2
            and threading.active_count() == 1
        )

    @staticmethod
    def experiment(out: Path, n_seeds: int) -> list[str]:
        return [
            "experiment", "--instance", str(instances_dir() / "celegans.instance"),
            "--n-seeds", str(n_seeds), "--seed", "1", "--out", str(out),
        ]

    @pytest.mark.parametrize("blocked, n_seeds", [(2, 3), (1, 20)])
    def test_unwritable_seed_is_one_error_line(self, tmp_path, capsys, forks, blocked, n_seeds):
        # A regular file where a seed's directory goes fails the writer. With
        # 20 seeds the caller goes on sending after the writer has exited.
        out = tmp_path / "exp"
        out.mkdir()
        (out / f"seed_{blocked:05d}").write_text("")
        expected = len(forks) + self.forked(n_seeds)
        assert main(self.experiment(out, n_seeds)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 17] File exists: '{out / f'seed_{blocked:05d}'}'\n"
        assert "Traceback" not in captured.out + captured.err
        assert not (out / "summary.json").exists()
        assert not (out / f"seed_{blocked + 1:05d}").exists()
        assert len(forks) == expected
        _assert_no_child_left()

    def test_writer_failure_is_one_oserror_after_a_broken_pipe(self, tmp_path, forks):
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        net = Network(["AT", "TT"], [0], [1])
        report = metrics.compute_metrics(net)
        forked = self.forked(2)
        with pytest.raises(OSError, match="File exists") as info:
            # So many networks that the caller sends until the exited child's pipe breaks.
            fileio.write_networks(1 << 30, lambda i: (blocked, net, report))
        assert isinstance(info.value.__context__, BrokenPipeError) == bool(forked)
        assert len(forks) == forked
        _assert_no_child_left()

    def test_caller_error_leaves_earlier_seeds_written(self, tmp_path, capsys, monkeypatch, forks):
        clean, failed = tmp_path / "clean", tmp_path / "failed"
        assert main(self.experiment(clean, 2)) == 0
        grow, compute = experiments.run_single, experiments.compute_metrics
        seeds = []  # in each process, the seeds it grew

        def grow_noting_seed(instance):
            seeds.append(instance.seed)
            return grow(instance)

        def fail_at_seed_3(net, **kwargs):
            if seeds[-1] == 3:
                raise ValueError("metrics failed at seed 3")
            return compute(net, **kwargs)

        monkeypatch.setattr(experiments, "run_single", grow_noting_seed)
        monkeypatch.setattr(experiments, "compute_metrics", fail_at_seed_3)
        capsys.readouterr()
        assert main(self.experiment(failed, 4)) == 1
        assert capsys.readouterr().err == "error: metrics failed at seed 3\n"
        written = _tree(failed)
        assert written == {k: v for k, v in _tree(clean).items() if k != "summary.json"}
        assert {k.split("/")[0] for k in written} == {"seed_00001", "seed_00002"}
        assert len(forks) == 2 * self.forked(4)
        _assert_no_child_left()

    @staticmethod
    def needs_the_child(monkeypatch) -> None:
        """Fork the child on one CPU too; skip where fork is missing or a thread is alive."""
        if not (hasattr(os, "fork") and threading.active_count() == 1):
            pytest.skip("the child is forked only where fork exists and no other thread is alive")
        monkeypatch.setattr(fileio, "_WORKERS", max(2, fileio._WORKERS))

    @staticmethod
    def in_each_process(monkeypatch, in_caller, in_child) -> None:
        """Run ``in_caller(instance)`` or ``in_child(instance)`` before each seed grows."""
        caller, grow = os.getpid(), experiments.run_single

        def run_single(instance):
            (in_caller if os.getpid() == caller else in_child)(instance)
            return grow(instance)

        monkeypatch.setattr(experiments, "run_single", run_single)

    @staticmethod
    def seeds_below(tree: dict[str, bytes], seed: int) -> dict[str, bytes]:
        return {k: v for k, v in tree.items() if k.startswith("seed_") and int(k[5:10]) < seed}

    def test_slow_caller_leaves_seeds_to_the_child(self, tmp_path, monkeypatch, forks):
        self.needs_the_child(monkeypatch)
        one_cpu, marks = tmp_path / "one", tmp_path / "marks"
        with monkeypatch.context() as m:
            m.setattr(fileio, "_WORKERS", 1)
            assert main(self.experiment(one_cpu, 6)) == 0
        assert not forks
        marks.mkdir()
        self.in_each_process(
            monkeypatch,
            lambda instance: time.sleep(0.05),
            lambda instance: (marks / str(instance.seed)).touch(),
        )
        assert main(self.experiment(tmp_path / "two", 6)) == 0
        assert len(forks) == 1
        assert list(marks.iterdir()), "the child grew no seed"
        assert _tree(tmp_path / "two") == _tree(one_cpu)
        _assert_no_child_left()

    def test_child_claims_no_index_while_a_record_waits(self, tmp_path, monkeypatch, forks):
        # The caller sends records 0 and 2 while the child makes index 1, then
        # holds index 3. Records of 2-node networks are small: a reader that
        # buffers the pipe takes record 2 in with record 0, where select cannot
        # see it, and claims index 4 with seed 2 unwritten.
        self.needs_the_child(monkeypatch)
        net = Network(["AT", "TT"], [0], [1])
        report = metrics.compute_metrics(net)
        caller, marks = os.getpid(), tmp_path / "marks"
        marks.mkdir()

        def wait_for(name: str) -> None:
            deadline = time.monotonic() + 10
            while not (marks / name).exists():
                assert time.monotonic() < deadline, f"{name} never came"
                time.sleep(0.002)

        def make(i: int) -> tuple[Path, Network, metrics.MetricsReport]:
            if os.getpid() == caller:
                if i == 0:
                    wait_for("child_1")
                elif i == 3:
                    (marks / "caller_3").touch()
                    wait_for("child_4")
            else:
                written = sorted(p.name for p in tmp_path.glob("seed_*"))
                (marks / f"child_{i}").write_text(" ".join(written))
                if i == 1:
                    wait_for("caller_3")
            return tmp_path / f"seed_{i}", net, report

        assert fileio.write_networks(5, make) == [report] * 5
        assert (marks / "child_4").read_text() == "seed_0 seed_1 seed_2"
        assert sorted(p.name for p in tmp_path.glob("seed_*")) == [f"seed_{i}" for i in range(5)]
        assert len(forks) == 1
        _assert_no_child_left()

    @pytest.mark.parametrize("failing", ["caller", "child"])
    def test_failure_in_either_process_leaves_earlier_seeds_written(
        self, tmp_path, capsys, monkeypatch, forks, failing
    ):
        # The failing process fails at its first seed >= 3, late enough that
        # the other has grown later seeds. The other is slowed, more so when
        # it is the caller, so that the failing one gets a seed >= 3.
        self.needs_the_child(monkeypatch)
        clean, failed = tmp_path / "clean", tmp_path / "failed"
        assert main(self.experiment(clean, 6)) == 0

        def fail_from_seed_3(instance):
            if instance.seed >= 3:
                time.sleep(0.1)
                raise ValueError(f"growth failed at seed {instance.seed}")

        def slowed(instance):
            time.sleep(0.01 if failing == "caller" else 0.05)

        if failing == "caller":
            self.in_each_process(monkeypatch, fail_from_seed_3, slowed)
        else:
            self.in_each_process(monkeypatch, slowed, fail_from_seed_3)
        capsys.readouterr()
        assert main(self.experiment(failed, 6)) == 1
        captured = capsys.readouterr()
        seed = int(re.fullmatch(r"error: growth failed at seed (\d+)\n", captured.err)[1])
        assert "Traceback" not in captured.out + captured.err
        assert _tree(failed) == self.seeds_below(_tree(clean), seed)
        assert not (failed / "summary.json").exists()
        assert len(forks) == 2
        _assert_no_child_left()

    def test_interrupted_caller_leaves_a_written_prefix(self, tmp_path, monkeypatch, forks):
        self.needs_the_child(monkeypatch)
        clean, interrupted = tmp_path / "clean", tmp_path / "interrupted"
        assert main(self.experiment(clean, 6)) == 0

        def interrupt_from_seed_3(instance):
            if instance.seed >= 3:
                raise KeyboardInterrupt

        self.in_each_process(monkeypatch, interrupt_from_seed_3, lambda instance: None)
        with pytest.raises(KeyboardInterrupt):
            main(self.experiment(interrupted, 6))
        written = _tree(interrupted)
        n_written = len({k.split("/")[0] for k in written})
        assert n_written >= 1
        assert written == self.seeds_below(_tree(clean), 1 + n_written)
        assert len(forks) == 2
        _assert_no_child_left()

    def test_child_killed_by_a_signal_is_one_error_line(self, tmp_path, capsys, monkeypatch, forks):
        # The child kills itself at its first seed from 4 on, and sends nothing
        # back: its exit status is all the caller learns. The caller is slowed
        # so that the child gets such a seed.
        self.needs_the_child(monkeypatch)
        clean, killed = tmp_path / "clean", tmp_path / "killed"
        assert main(self.experiment(clean, 12)) == 0

        def kill_from_seed_4(instance):
            if instance.seed >= 4:
                os.kill(os.getpid(), signal.SIGKILL)

        self.in_each_process(monkeypatch, lambda instance: time.sleep(0.02), kill_from_seed_4)
        capsys.readouterr()
        assert main(self.experiment(killed, 12)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the child ended with exit code -9\n"
        assert "Traceback" not in captured.out + captured.err
        assert not (killed / "summary.json").exists()
        written = _tree(killed)
        n_written = len({k.split("/")[0] for k in written})
        assert n_written < 12
        assert written == self.seeds_below(_tree(clean), 1 + n_written)
        assert len(forks) == 2
        _assert_no_child_left()

    def test_end_of_the_data_ends_the_childs_claims(self, tmp_path, monkeypatch, forks):
        # The caller holds index 0 until the child has claimed index 1, then
        # fails at index 2 while the child still makes 1. The child claims only
        # while its data pipe is empty, and the caller's failure closes that
        # pipe: at most the one make that the child was about to start follows.
        self.needs_the_child(monkeypatch)
        net = Network(["AT", "TT"], [0], [1])
        report = metrics.compute_metrics(net)
        out, log, caller = tmp_path / "out", tmp_path / "log", os.getpid()
        failed_at = []

        def make(i):
            if os.getpid() != caller:
                with open(log, "a") as f:
                    f.write(f"{i} {time.monotonic()}\n")
                time.sleep(0.02)
            elif i == 0:
                deadline = time.monotonic() + 10
                while not (log.exists() and log.read_text()):
                    assert time.monotonic() < deadline, "the child made nothing"
                    time.sleep(0.001)
            elif i == 2:
                failed_at.append(time.monotonic())
                raise ValueError("make failed at index 2")
            return out / str(i), net, report

        with pytest.raises(ValueError, match="make failed at index 2"):
            fileio.write_networks(20, make)
        assert sorted(p.name for p in out.iterdir()) == ["0", "1"]
        child_makes = [line.split() for line in log.read_text().splitlines()]
        assert child_makes[0][0] == "1"
        assert sum(float(t) > failed_at[0] for _, t in child_makes) <= 1
        assert len(forks) == 1
        _assert_no_child_left()

    def test_every_index_is_made_once_and_written_in_order(self, tmp_path, monkeypatch, forks):
        # Writes cost nothing and the caller's makes 0.2 ms, so the child finds
        # its pipe empty and claims as fast as it can beside the caller: a
        # lost update of the token's count would make an index twice or never.
        self.needs_the_child(monkeypatch)
        net = Network(["AT", "TT"], [0], [1])
        report = metrics.compute_metrics(net)
        log, caller = tmp_path / "log", os.getpid()

        def note(line):
            with open(log, "a") as f:
                f.write(line + "\n")

        def make(i):
            if os.getpid() == caller:
                time.sleep(0.0002)
            note(f"made {i} {os.getpid()}")
            return tmp_path, net, dataclasses.replace(report, n_nodes=i)

        monkeypatch.setattr(fileio, "write_network", lambda d, n, r: note(f"wrote {r.n_nodes}"))
        n = 2000
        reports = fileio.write_networks(n, make)
        assert [r.n_nodes for r in reports] == list(range(n))
        lines = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(w[1]) for w in lines if w[0] == "made") == list(range(n))
        assert [int(w[1]) for w in lines if w[0] == "wrote"] == list(range(n))
        assert len({w[2] for w in lines if w[0] == "made"}) == 2, "one process made every index"
        assert len(forks) == 1
        _assert_no_child_left()

    @pytest.mark.parametrize("forked", [False, True])
    def test_every_report_comes_back_in_index_order(self, tmp_path, monkeypatch, forks, forked):
        # In the forked case the caller is slowed, so that the child makes
        # indexes too: every report, whoever made it, comes back from the child.
        if forked:
            self.needs_the_child(monkeypatch)
        else:
            monkeypatch.setattr(fileio, "_WORKERS", 1)
        caller, marks = os.getpid(), tmp_path / "marks"
        marks.mkdir()

        def make(i: int) -> tuple[Path, Network, metrics.MetricsReport]:
            if os.getpid() == caller and forked:
                time.sleep(0.05)
            (marks / f"{i}_{os.getpid()}").touch()
            net = from_pairs(i + 3, [(k, k + 1) for k in range(i + 2)])
            return tmp_path / f"seed_{i}", net, metrics.compute_metrics(net)

        reports = fileio.write_networks(6, make)
        assert [r.n_nodes for r in reports] == [i + 3 for i in range(6)]
        for i, report in enumerate(reports):
            rendered = fileio.render_json(fileio.report_to_dict(report, fileio.METRICS_FORMAT))
            assert rendered == (tmp_path / f"seed_{i}" / "metrics.json").read_text()
        makers = {p.name.split("_")[1] for p in marks.iterdir()}
        assert len(makers) == 1 + forked
        assert len(forks) == forked
        _assert_no_child_left()

    def test_long_child_message_is_capped_and_cannot_deadlock(
        self, tmp_path, capsys, monkeypatch, forks
    ):
        # The child fails at index 1 with a 100 000-character message while
        # the caller goes on sending 320 KB records. Uncapped, the message
        # would fill the result pipe: the child would block on it while the
        # caller blocks on the data pipe that the child no longer reads.
        self.needs_the_child(monkeypatch)
        big = from_pairs(20_001, [(k, k + 1) for k in range(20_000)])
        report = metrics.compute_metrics(Network(["AT", "TT"], [0], [1]))
        caller, mark = os.getpid(), tmp_path / "child_claimed"

        def run_single(instance):
            if os.getpid() != caller:
                mark.touch()
                raise ValueError("x" * 100_000)
            deadline = time.monotonic() + 10
            while not mark.exists():  # so that the child claims index 1
                assert time.monotonic() < deadline, "the child claimed nothing"
                time.sleep(0.002)
            return big, None

        def timed_out(signum, frame):
            raise TimeoutError("the caller and the child deadlocked")

        monkeypatch.setattr(experiments, "run_single", run_single)
        monkeypatch.setattr(experiments, "compute_metrics", lambda net, **kwargs: report)
        out = tmp_path / "exp"
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            assert main(self.experiment(out, 50)) == 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        captured = capsys.readouterr()
        assert captured.err == "error: " + "x" * fileio._MESSAGE_BYTES + "\n"
        assert "Traceback" not in captured.out + captured.err
        assert sorted(p.name for p in out.iterdir()) == ["seed_00001"]
        assert len(forks) == 1
        _assert_no_child_left()

    def test_record_cut_short_leaves_the_contiguous_prefix(self, tmp_path, monkeypatch, forks):
        # The child makes index 1 while the caller sends record 0, then makes
        # index 3 while the caller makes index 2. The caller's send of record 2
        # stops halfway and raises: the child holds 0, 1 and 3, writes 0 and 1,
        # and exits cleanly, so the caller's own error is the one raised.
        self.needs_the_child(monkeypatch)
        net = Network(["AT", "TT"], [0], [1])
        report = metrics.compute_metrics(net)
        caller, marks = os.getpid(), tmp_path / "marks"
        marks.mkdir()
        send, sends = Connection._send, []

        def cut_send(connection, buf, *args):
            if os.getpid() == caller:
                sends.append(len(buf))
                if len(sends) == 2:
                    send(connection, buf[: len(buf) // 2])
                    raise ValueError("the send was cut")
            return send(connection, buf, *args)

        def wait_for(name: str) -> None:
            deadline = time.monotonic() + 10
            while not (marks / name).exists():
                assert time.monotonic() < deadline, f"{name} never came"
                time.sleep(0.002)

        def make(i: int) -> tuple[Path, Network, metrics.MetricsReport]:
            if os.getpid() == caller:
                (marks / f"caller_{i}").touch()
                wait_for("child_1" if i == 0 else "child_3")
            else:
                (marks / f"child_{i}").touch()
                if i == 1:
                    wait_for("caller_2")
            return tmp_path / f"seed_{i}", net, report

        monkeypatch.setattr(Connection, "_send", cut_send)
        with pytest.raises(ValueError, match="the send was cut"):
            fileio.write_networks(4, make)
        assert sorted(p.name for p in marks.iterdir()) == [
            "caller_0", "caller_2", "child_1", "child_3"
        ]
        assert sorted(p.name for p in tmp_path.glob("seed_*")) == ["seed_0", "seed_1"]
        assert len(forks) == 1
        _assert_no_child_left()

    def test_caller_sends_while_the_child_makes_its_first_seed(
        self, tmp_path, monkeypatch, forks
    ):
        # The child holds its first index until the caller has sent 20
        # celegans records of about 36 KB. A data pipe of the default 64 KiB
        # holds one: the caller's next send would wait on the child, and the
        # child's wait would run out.
        import fcntl

        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("the data pipe keeps its default size where it cannot be set")
        self.needs_the_child(monkeypatch)
        net, _ = experiments.run_single(
            experiments.load_instance_file(instances_dir() / "celegans.instance").instance
        )
        report = metrics.compute_metrics(net)
        assert len(pickle.dumps((1, (tmp_path / "seed_1", net, report)))) > 30_000
        caller, marks, pipes, sizes = os.getpid(), tmp_path / "marks", [], []
        marks.mkdir()
        pipe = multiprocessing.connection.Pipe

        def recorded_pipe(duplex=True):
            pipes.append(pipe(duplex))
            return pipes[-1]

        def wait_for(name: str) -> bool:
            deadline = time.monotonic() + 10
            while not (marks / name).exists():
                if time.monotonic() > deadline:
                    return False
                time.sleep(0.002)
            return True

        def make(i: int) -> tuple[Path, Network, metrics.MetricsReport]:
            if os.getpid() != caller:
                (marks / "child_busy").touch()
                if i == 1:
                    (marks / ("in_time" if wait_for("caller_sent_20") else "too_late")).touch()
            elif i == 0:
                assert wait_for("child_busy"), "the child claimed nothing"
                sizes.append(fcntl.fcntl(pipes[0][1].fileno(), fcntl.F_GETPIPE_SZ))
            elif i == 21:  # records 0 and 2-20 are sent
                (marks / "caller_sent_20").touch()
            return tmp_path / f"seed_{i}", net, report

        monkeypatch.setattr(multiprocessing.connection, "Pipe", recorded_pipe)
        assert len(fileio.write_networks(22, make)) == 22
        assert (marks / "in_time").exists(), "the caller's sends waited on the busy child"
        assert sizes[0] >= 1 << 20
        assert sorted(p.name for p in tmp_path.glob("seed_*")) == sorted(
            f"seed_{i}" for i in range(22)
        )
        assert len(forks) == 1
        _assert_no_child_left()

    @pytest.mark.skipif(
        not hasattr(os, "fork") or metrics._WORKERS < 2,
        reason="the child is forked only where fork exists and two CPUs are usable",
    )
    def test_compare_ba_leaves_no_thread_to_stop_the_fork(self, tmp_path, forks):
        if threading.active_count() != 1:
            pytest.skip("a thread outside the test is alive")
        assert main(_compare_600(tmp_path / "cmp", "300,600")) == 0
        assert threading.active_count() == 1
        assert main(self.experiment(tmp_path / "exp", 3)) == 0
        assert len(forks) == 1
        _assert_no_child_left()

    def test_fit_failure_is_one_error_line_on_one_cpu_and_on_two(
        self, tmp_path, capsys, monkeypatch, forks
    ):
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(fileio, "_WORKERS", workers)
            out = tmp_path / str(workers)
            assert main([*self.experiment(out, 4), "--fit-k-min", "1000"]) == 1
            errors.append(capsys.readouterr().err)
            assert not (out / "summary.json").exists()
        assert errors == ["error: power-law fit requires at least 2 usable degree bins\n"] * 2
        assert len(forks) == int(hasattr(os, "fork") and threading.active_count() == 1)
        _assert_no_child_left()


#: Incremental growth that saturates at its 1 initial node, short of its
#: checkpoint 6: every mutant of ABAB differs from it in one group, beyond
#: max_distance 0, so it is isolated.
SATURATING = [
    "--alphabet", "AB", "--initial", "ABAB", "--p-mutate", "1", "--unit-distance", "2",
    "--max-distance", "0", "--target-nodes", "6", "--max-attempts", "25", "--checkpoints", "6",
]


def _compare_600(out: Path, checkpoints: str) -> list[str]:
    """compare-ba on comparison.instance grown to 600 nodes, one seed."""
    return [
        "compare-ba", "--instance", str(instances_dir() / "comparison.instance"),
        "--target-nodes", "600", "--checkpoints", checkpoints, "--n-seeds", "1",
        "--out", str(out),
    ]


class TestCompareBA:
    def test_curve_files(self, tmp_path, instance_file, capsys):
        out = tmp_path / "cmp"
        code = main([
            "compare-ba",
            "--instance", str(instance_file),
            "--checkpoints", "15,30,15",
            "--ba-clique", "4",
            "--ba-edges", "4",
            "--metrics", "average_degree,average_clustering",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "comparison_average_degree.tsv").is_file()
        assert (out / "comparison_average_clustering.tsv").is_file()
        # A repeated checkpoint counts once.
        assert "curves for 2 checkpoints" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            # Growth saturates at its 1 initial node, short of a 6-node checkpoint.
            (SATURATING, "growth saturated at 1 nodes before checkpoint 6"),
            # A 1-node prefix has no connected pair, and a 2-node one no heterogeneity.
            (
                ["--instance", "{instance}", "--checkpoints", "1"],
                "average_path_length is undefined on the sn network at checkpoint 1",
            ),
            (
                ["--instance", "{instance}", "--metrics", "heterogeneity", "--checkpoints", "2"],
                "heterogeneity is undefined on the sn network at checkpoint 2",
            ),
        ],
        ids=["saturating-growth", "path-length-of-one-node", "heterogeneity-of-two-nodes"],
    )
    def test_missing_curve_value_is_one_error_line(
        self, tmp_path, instance_file, capsys, argv, message
    ):
        out = tmp_path / "cmp"
        argv = [token.format(instance=instance_file) for token in argv]
        assert main(["compare-ba", *argv, "--n-seeds", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.out
        assert not out.exists()

    def test_first_undefined_value_is_reported_however_reports_finish(
        self, tmp_path, capsys, monkeypatch
    ):
        # Both 1-node prefixes lack a path length. The sn one is slowed, so
        # the ba one, claimed once sn's 600-node report is done, fails first;
        # the error still names sn.
        compute = experiments.compute_metrics

        def slow_sn(net, **kwargs):
            if net.structures[0] is not None and net.n_nodes == 1:
                time.sleep(0.3)
            return compute(net, **kwargs)

        monkeypatch.setattr(metrics, "_WORKERS", 2)
        monkeypatch.setattr(experiments, "compute_metrics", slow_sn)
        before = threading.active_count()
        assert main(_compare_600(tmp_path / "cmp", "1,600")) == 1
        assert capsys.readouterr().err == (
            "error: average_path_length is undefined on the sn network at checkpoint 1\n"
        )
        assert threading.active_count() == before

    def test_failing_report_is_one_error_line_and_leaves_no_thread(
        self, tmp_path, capsys, monkeypatch
    ):
        compute = experiments.compute_metrics

        def fail_ba_at_600(net, **kwargs):
            if net.structures[0] is None and net.n_nodes == 600:
                raise ValueError("report failed")
            return compute(net, **kwargs)

        monkeypatch.setattr(metrics, "_WORKERS", 2)
        monkeypatch.setattr(experiments, "compute_metrics", fail_ba_at_600)
        before = threading.active_count()
        out = tmp_path / "cmp"
        assert main(_compare_600(out, "300,600")) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: report failed\n"
        assert "Traceback" not in captured.out
        assert not out.exists()
        assert threading.active_count() == before

    def test_metric_flags_share_one_table(self, tmp_path, instance_file, capsys):
        errors = []
        for command, flag in (("compare-ba", "--metrics"), ("experiment", "--referenced-metrics")):
            out = tmp_path / command
            argv = [command, "--instance", str(instance_file), flag, "bogus", "--out", str(out)]
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        known = ", ".join(experiments._SCALAR_FIELDS)
        assert errors == [f"error: unknown metric 'bogus'; known metrics: {known}\n"] * 2

    def test_batch_instance_is_an_error(self, tmp_path, capsys):
        # Batch growth drops the nodes it leaves isolated, so a prefix of a
        # batch network is not the batch network of that size.
        code = main([
            "compare-ba",
            "--instance", str(instances_dir() / "batch.instance"),
            "--target-nodes", "100",
            "--checkpoints", "50,100",
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: compare-ba needs mode = incremental, not batch\n"
        assert not (tmp_path / "cmp").exists()


class TestPrune:
    def test_prunes_edge_list(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n1\t2\n2\t3\n")
        out = tmp_path / "pruned.tsv"
        assert main([
            "prune", "--edges", str(edges), "--min-degree", "2", "--out", str(out),
        ]) == 0
        net = fileio.read_edge_list(out)
        assert net.n_nodes == 2
        assert net.n_edges == 1

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = main([
            "prune", "--edges", str(tmp_path / "nope.tsv"),
            "--min-degree", "1", "--out", str(tmp_path / "out.tsv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


#: Bad contents of each input file, by kind and name; None means no file.
#: Every value Python would try to allocate for is refused without allocating.
BAD_FILES: dict[str, dict[str, str | bytes | None]] = {
    "instance": {
        "unknown-key": INSTANCE + "bogus = 1\n",
        "missing-key": INSTANCE.replace("target_nodes = 30\n", ""),
        "bad-value": INSTANCE.replace("target_nodes = 30", "target_nodes = x"),
        "no-equals": INSTANCE + "seed\n",
        "duplicate-key": INSTANCE + "seed = 6\n",
        "invalid-config": INSTANCE.replace("p_mutate = 1.0", "p_mutate = 0.5"),
        "unknown-symbol": INSTANCE.replace("initial = ABCABC", "initial = ABCABX"),
        "missing-match-file": INSTANCE + "match_file = nope.txt\n",
        "not-utf8": b"\xff\xfe",
        "missing": None,
    },
    "match": {
        "group-length": "AAA = BB\n",
        "unknown-symbol": "AX = BB\n",
        "no-equals": "AA BB\n",
        "not-utf8": b"\xff",
        "missing": None,
    },
    "edges": {
        "self-loop": "0\t0\n",
        "one-field": "0\n",
        "non-integer": "0\tx\n",
        "negative": "0\t-1\n",
        "node-count-text": "# nodes x\n",
        "negative-node-count": "# nodes -4\n",
        "huge-id": "0\t99999999999999999999\n",
        "largest-id": "0\t9223372036854775807\n",
        "huge-node-count": "# nodes 10000000000000000000\n",
        "unallocatable-node-count": "# nodes 4611686018427387904\n",
        "unallocatable-id": "0\t4611686018427387904\n",
        "not-utf8": b"\xff",
        "missing": None,
    },
}

#: Arguments each subcommand runs with, in the placeholders of _bad_input_cases.
GOOD_ARGS = {
    "generate": ["--instance", "{good}", "--out", "{out}"],
    "metrics": ["--edges", "{good_edges}"],
    "experiment": ["--instance", "{good}", "--out", "{out}"],
    "compare-ba": ["--instance", "{good}", "--out", "{out}"],
    "prune": ["--edges", "{good_edges}", "--min-degree", "1", "--out", "{out}"],
}

#: Batch growth over a 5-word edit space at distance 0 and unit 1: it
#: saturates, and every node is isolated, so the network is empty.
EMPTY_BATCH = [
    "--alphabet", "AB", "--initial", "AAAA", "--p-mutate", "1", "--unit-distance", "1",
    "--max-distance", "0", "--target-nodes", "50", "--mode", "batch",
]


def _bad_input_cases() -> list:
    """(argv, kind, name) for every subcommand and each kind of bad input it reads.

    In argv, {file} is the bad file, {good} a valid instance file and {out}
    an output path.
    """
    cases = []
    for command in ("generate", "experiment", "compare-ba"):
        for name in BAD_FILES["instance"]:
            cases.append(([command, "--instance", "{file}", "--out", "{out}"], "instance", name))
        for name in BAD_FILES["match"]:
            argv = [command, "--instance", "{good}", "--match-file", "{file}", "--out", "{out}"]
            cases.append((argv, "match", name))
    for name in BAD_FILES["edges"]:
        cases.append((["metrics", "--edges", "{file}"], "edges", name))
        cases.append((["prune", "--edges", "{file}", "--min-degree", "1", "--out", "{out}"], "edges", name))
    for command, good in GOOD_ARGS.items():
        cases.append(([command, *good, "--bogus", "1"], "usage", "unknown-flag"))
    cases.append((["metrics", *GOOD_ARGS["metrics"], "--structures", "x"], "usage", "structures-flag"))
    for command in ("generate", "experiment", "compare-ba"):
        cases.append(([command, "--instance", "{good}"], "usage", "missing-out"))
    cases.append(([], "usage", "no-subcommand"))
    cases.append((["bogus"], "usage", "unknown-subcommand"))
    flags = {
        "generate": [["--seed", "x"], ["--max-attempts", "5"], ["--fit-k-min", "x"]],
        "experiment": [
            ["--n-seeds", "0"], ["--referenced-metrics", "bogus"], ["--referenced-metrics", ","],
        ],
        "compare-ba": [
            ["--checkpoints", "0"], ["--metrics", "bogus"], ["--metrics", ","], ["--ba-edges", "9"],
        ],
    }
    for command, variants in flags.items():
        for flag in variants:
            argv = [command, "--instance", "{good}", *flag, "--out", "{out}"]
            cases.append((argv, "flag", " ".join(flag)))
    cases.append((["metrics", "--edges", "{good_edges}", "--fit-k-min", "2.5"], "flag", "--fit-k-min 2.5"))
    cases.append((["prune", "--edges", "{good_edges}", "--min-degree", "-1", "--out", "{out}"], "flag", "--min-degree -1"))
    for command in ("generate", "experiment"):
        cases.append(([command, *EMPTY_BATCH, "--out", "{out}"], "saturating", "empty-network"))
    argv = ["compare-ba", *SATURATING, "--n-seeds", "1", "--out", "{out}"]
    cases.append((argv, "saturating", "checkpoint-past-saturation"))
    return [
        pytest.param(argv, kind, name, id=f"{argv[0] if argv else 'snm'}-{kind}-{name}")
        for argv, kind, name in cases
    ]


@pytest.mark.parametrize("command", ["generate", "experiment", "compare-ba"])
@pytest.mark.parametrize("source", ["flag", "key"])
def test_negative_seed_is_one_error_line(tmp_path, capsys, command, source):
    # random.Random(-1) is Random(1): seeds -1 and 1 would grow the same network.
    instance = tmp_path / "negative.instance"
    instance.write_text(INSTANCE.replace("seed = 5", "seed = -1") if source == "key" else INSTANCE)
    argv = [command, "--instance", str(instance), "--out", str(tmp_path / "out")]
    assert main(argv + (["--seed", "-1"] if source == "flag" else [])) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (tmp_path / "out").exists()


class TestBadInput:
    @pytest.mark.parametrize("argv, kind, name", _bad_input_cases())
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, kind, name):
        bad = tmp_path / f"bad.{kind}"
        content = BAD_FILES.get(kind, {}).get(name)
        if isinstance(content, bytes):
            bad.write_bytes(content)
        elif content is not None:
            bad.write_text(content)
        good = tmp_path / "good.instance"
        good.write_text(INSTANCE)
        good_edges = tmp_path / "good.tsv"
        good_edges.write_text("0\t1\n1\t2\n")
        paths = {"file": bad, "good": good, "good_edges": good_edges, "out": tmp_path / "out"}
        assert main([token.format(**paths) for token in argv]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--bogus", "1"], "snm generate: the following arguments are required: --out"),
            (["metrics", "--edges", "e", "--structures", "s"], "snm: unrecognized arguments: --structures s"),
            ([], "snm: the following arguments are required: command"),
        ],
        ids=["missing-out", "structures-flag", "no-subcommand"],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: snm")


class TestRepeatedCalls:
    def test_one_parser_serves_every_call(self, tmp_path, instance_file, capsys, monkeypatch):
        # main builds its parser on the first call of a process and reuses it,
        # so no flag or handler of one call may leak into the next.
        builds = []

        def counted_build():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted_build)
        small, wide = tmp_path / "small", tmp_path / "wide"
        argv = ["generate", "--instance", str(instance_file), "--out"]
        assert main([*argv, str(small), "--target-nodes", "12"]) == 0
        assert main([*argv, str(wide)]) == 0
        assert fileio.read_edge_list(small / "edges.tsv").n_nodes == 12
        assert fileio.read_edge_list(wide / "edges.tsv").n_nodes == 30
        capsys.readouterr()

        edges = str(wide / "edges.tsv")
        assert main(["metrics", "--edges", edges, "--fit-k-min", "two"]) == 1
        assert capsys.readouterr().err.startswith("error: key 'fit_k_min': cannot parse value")
        assert main(["metrics", "--edges", edges]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (wide / "metrics.json").read_text()

        pruned = tmp_path / "pruned.tsv"
        assert main(["prune", "--edges", edges, "--bogus", "--out", str(pruned)]) == 1
        assert capsys.readouterr().err.startswith("error: snm prune: ")
        assert main(["prune", "--edges", edges, "--min-degree", "100", "--out", str(pruned)]) == 0
        assert fileio.read_edge_list(pruned).n_nodes == 0
        assert main([*argv, str(tmp_path / "again"), "--target-nodes", "12"]) == 0
        assert (tmp_path / "again" / "edges.tsv").read_bytes() == (small / "edges.tsv").read_bytes()
        assert len(builds) == 1


#: An edge list whose lines 2 and 4 repeat the edge of line 1.
DUPLICATES = "0 1\n1 0\n1 2\n0 1\n"
DUPLICATE_WARNINGS = (
    "warning: line 2: duplicate edge (0, 1), keeping one\n"
    "warning: line 4: duplicate edge (0, 1), keeping one\n"
)


class TestWarnings:
    """Each library warning a command raises is one ``warning:`` line on stderr."""

    def test_duplicate_edges_in_metrics_and_prune(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text(DUPLICATES)
        assert main(["metrics", "--edges", str(edges)]) == 0
        assert capsys.readouterr().err == DUPLICATE_WARNINGS
        out = tmp_path / "pruned.tsv"
        assert main(["prune", "--edges", str(edges), "--min-degree", "1", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == DUPLICATE_WARNINGS
        assert captured.out == f"kept 3 of 3 nodes (2 edges) in {out}\n"

    def test_asymmetric_match_file(self, tmp_path, capsys):
        matches = tmp_path / "matches.txt"
        matches.write_text("AT = CT\n")
        argv = [
            "generate", "--instance", str(instances_dir() / "ecoli.instance"),
            "--match-file", str(matches), "--target-nodes", "20", "--out", str(tmp_path / "g"),
        ]
        assert main(argv) == 0
        expected = "warning: match file is not symmetric; missing reverse rules were added\n"
        assert capsys.readouterr().err == expected

    def test_repeated_call_warns_again_and_restores_the_handler(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text(DUPLICATES)
        handler = warnings.showwarning
        for _ in range(2):
            assert main(["metrics", "--edges", str(edges)]) == 0
            assert capsys.readouterr().err == DUPLICATE_WARNINGS
            assert warnings.showwarning is handler
        with pytest.warns(UserWarning) as record:  # outside main, warnings are as before
            fileio.read_edge_list(edges)
        assert [f"warning: {w.message}\n" for w in record] == DUPLICATE_WARNINGS.splitlines(True)
