"""Correctness gate for the artifacts each workload writes.

An operation is one CLI call or one network it produces. A call fails when it
raises or exits non-zero, or, for ``experiment``, when ``summary.json`` does
not agree with the per-seed reports. A network fails when its artifacts do
not pass the check below. Every check runs outside the timed passes.

- Networks whose key is in the recorded reference (the default seed and one
  held-out seed) must reproduce the SHA-256 digest of ``edges.tsv`` and
  ``structures.tsv`` and the reference metric values: integers exactly,
  floats within ``REL_TOL``.
- Any other network gets the oracle: its report must agree with its edge
  list, every edge must satisfy ``within_max_distance``, and of 200 seeded
  random node pairs, none that is a non-edge may satisfy it. Degree pruning keeps the induced subgraph of
  the surviving nodes, so the rule holds for pruned networks too.
- Later passes of the same run must write byte-identical files: every
  network, every compare-ba output and every experiment's ``summary.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Call

REL_TOL = 1e-9
NON_EDGE_SAMPLES = 200
_SCALARS = (
    "n_nodes",
    "n_edges",
    "average_degree",
    "average_path_length",
    "average_path_length_largest_component",
    "largest_component_fraction",
    "average_clustering",
    "heterogeneity",
    "motif_census",
)
_CURVES = ("average_degree", "average_path_length", "average_clustering")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_value(a, b) -> bool:
    """Integers, strings and None exactly; floats within REL_TOL; containers recursively."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0) or a == b
    return a == b


def read_edges(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """Node count from the ``# nodes`` header and the edge rows, parsed independently of snmodel."""
    n_nodes = None
    edges = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# nodes "):
            n_nodes = int(line.split()[2])
        elif line and not line.startswith("#"):
            u, v = line.split("\t")
            edges.append((int(u), int(v)))
    if n_nodes is None:
        raise ValueError("missing '# nodes' header")
    return n_nodes, edges


def read_structures(path: Path) -> list[str]:
    words = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            node, word = line.split("\t")
            if int(node) != len(words):
                raise ValueError(f"structure ids not consecutive at {node}")
            words.append(word)
    return words


def read_curves(directory: Path) -> dict[str, list[list[float]]]:
    out = {}
    for name in _CURVES:
        rows = []
        for line in (directory / f"comparison_{name}.tsv").read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                rows.append([float(x) for x in line.split("\t")])
        out[name] = rows
    return out


def network_record(directory: Path) -> dict:
    """What the reference stores for one generated network."""
    report = json.loads((directory / "metrics.json").read_text(encoding="utf-8"))
    return {
        "edges.tsv": sha256(directory / "edges.tsv"),
        "structures.tsv": sha256(directory / "structures.tsv"),
        "metrics": {name: report[name] for name in _SCALARS},
    }


def fingerprint(path: Path) -> str:
    """Digest over every file under *path* (or of *path* itself)."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(str(p.relative_to(path.parent)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Per output unit: fingerprint (None if missing) and the number of
    #: networks it holds; later passes of the run must reproduce it.
    fingerprints: dict[str, tuple[str | None, int]] = field(default_factory=dict)
    #: Per call: fingerprint of the files it writes beside its networks
    #: (an experiment's summary.json), None if it writes none or they are missing.
    call_fingerprints: list[str | None] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class Checker:
    """Checks the outputs of one pass; *reference* maps network keys to records."""

    def __init__(self, reference: dict, seed: int) -> None:
        self.reference = reference
        self.rng = random.Random(seed)
        self._distance_configs: dict[Path, object] = {}

    def _distance_config(self, instance: Path):
        if instance not in self._distance_configs:
            from snmodel.experiments import load_instance_file

            self._distance_configs[instance] = load_instance_file(instance).instance.distance
        return self._distance_configs[instance]

    def check_pass(self, calls: list[Call], call_errors: list[str | None], root: Path) -> Outcome:
        """Check every call of one pass; *root* is the directory the pass wrote under."""
        out = Outcome()
        for call, error in zip(calls, call_errors):
            problems = [error] if error else []
            out.call_fingerprints.append(_call_fingerprint(call))
            if call.kind == "experiment":
                dirs = [call.out / f"seed_{s:05d}" for s in call.seeds]
                for d in dirs:
                    self._network(out, d, root, call.instance)
                problems += _guard(lambda: _check_summary(call.out, dirs))
            elif call.kind == "generate":
                self._network(out, call.out, root, call.instance)
            else:
                self._curves(out, call, root)
            out.record(f"{call.argv[0]} -> {call.out}", problems)
        return out

    @staticmethod
    def check_repeat(first: Outcome, calls: list[Call], call_errors: list[str | None], root: Path) -> Outcome:
        """A later pass of the same run: every call succeeds and every output unit
        is byte-identical to the first pass under *root*."""
        out = Outcome()
        for call, error, digest in zip(calls, call_errors, first.call_fingerprints):
            problems = [error] if error else []
            if call.kind == "experiment" and (digest is None or _call_fingerprint(call) != digest):
                problems.append("summary.json differs from the first pass")
            out.record(f"{call.argv[0]} -> {call.out}", problems)
        for key, (digest, n_networks) in first.fingerprints.items():
            path = root / key
            same = digest is not None and path.is_dir() and fingerprint(path) == digest
            for _ in range(n_networks):
                out.record(f"{path}", [] if same else ["differs from the first pass"])
        return out

    def _network(self, out: Outcome, directory: Path, root: Path, instance: Path) -> None:
        key = directory.relative_to(root).as_posix()
        if key in self.reference:
            problems = _guard(lambda: _compare_record(network_record(directory), self.reference[key]))
        else:
            problems = _guard(lambda: self._oracle(directory, self._distance_config(instance)))
        out.fingerprints[key] = (fingerprint(directory) if directory.is_dir() else None, 1)
        out.record(key, problems)

    def _oracle(self, directory: Path, cfg) -> list[str]:
        from snmodel.distance import within_max_distance

        n_nodes, edges = read_edges(directory / "edges.tsv")
        words = read_structures(directory / "structures.tsv")
        report = json.loads((directory / "metrics.json").read_text(encoding="utf-8"))
        problems = []
        if len(words) != n_nodes or report["n_nodes"] != n_nodes:
            problems.append(f"node counts disagree: {n_nodes}, {len(words)}, {report['n_nodes']}")
        if len(set(words)) != len(words):
            problems.append("structures are not pairwise distinct")
        if report["n_edges"] != len(edges) or edges != sorted(set(edges)):
            problems.append("edge list is not sorted, unique and of the reported size")
        if any(not 0 <= u < v < n_nodes for u, v in edges):
            problems.append("edge endpoint out of range or not u < v")
        if problems:
            return problems
        if not same_value(report["average_degree"], 2.0 * len(edges) / n_nodes):
            problems.append("average_degree disagrees with the edge list")
        degree = [0] * n_nodes
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        counts = Counter(degree)
        reported = report["degree_distribution"]
        if reported.keys() != {str(k) for k in counts} or not all(
            same_value(reported[str(k)], c / n_nodes) for k, c in counts.items()
        ):
            problems.append("degree_distribution disagrees with the edge list")
        far = [(u, v) for u, v in edges if not within_max_distance(words[u], words[v], cfg)]
        if far:
            problems.append(f"{len(far)} edges join structures beyond max_distance, e.g. {far[0]}")
        edge_set = set(edges)
        for _ in range(NON_EDGE_SAMPLES if n_nodes >= 2 else 0):
            u, v = sorted(self.rng.sample(range(n_nodes), 2))
            if (u, v) not in edge_set and within_max_distance(words[u], words[v], cfg):
                problems.append(f"non-edge ({u}, {v}) is within max_distance")
                break
        return problems

    def _curves(self, out: Outcome, call: Call, root: Path) -> None:
        key = call.out.relative_to(root).as_posix()
        checkpoints = [int(c) for c in call.argv[call.argv.index("--checkpoints") + 1].split(",")]
        try:
            curves = read_curves(call.out)
        except (OSError, ValueError) as exc:
            curves = None
            sn_problems = ba_problems = [f"unreadable curves: {exc}"]
        if curves is not None:
            if key in self.reference:
                ref = self.reference[key]
                sn_problems = [n for n in _CURVES if not same_value(_column(curves[n], 1), ref[n]["sn"])]
                ba_problems = [n for n in _CURVES if not same_value(_column(curves[n], 2), ref[n]["ba"])]
            else:
                sn_problems = _guard(lambda: _check_sn_curves(curves, checkpoints, call.same_network_as))
                ba_problems = _guard(lambda: _check_ba_curves(curves, checkpoints))
            if any(_column(curves[n], 0) != [float(c) for c in checkpoints] for n in _CURVES):
                sn_problems = sn_problems + ["checkpoint rows differ from the requested checkpoints"]
        out.fingerprints[key] = (fingerprint(call.out) if call.out.is_dir() else None, 2)
        out.record(key + " (sn)", sn_problems)
        out.record(key + " (ba)", ba_problems)


def _call_fingerprint(call: Call) -> str | None:
    summary = call.out / "summary.json"
    return fingerprint(summary) if call.kind == "experiment" and summary.is_file() else None


def _guard(check) -> list[str]:
    """Run a check; a missing or unreadable artifact is a failure, not a crash."""
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def _compare_record(actual: dict, expected: dict) -> list[str]:
    problems = [f"{name} digest differs" for name in ("edges.tsv", "structures.tsv") if actual[name] != expected[name]]
    problems += [
        f"metric {name} = {actual['metrics'][name]!r}, reference {expected['metrics'][name]!r}"
        for name in _SCALARS
        if not same_value(actual["metrics"][name], expected["metrics"][name])
    ]
    return problems


def _check_summary(directory: Path, seed_dirs: list[Path]) -> list[str]:
    summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
    reports = [json.loads((d / "metrics.json").read_text(encoding="utf-8")) for d in seed_dirs]
    problems = []
    if summary["n_seeds"] != len(seed_dirs):
        problems.append(f"summary n_seeds {summary['n_seeds']} != {len(seed_dirs)}")
    for name in ("n_nodes", "n_edges", "average_degree"):
        mean = sum(r[name] for r in reports) / len(reports)
        if not math.isclose(summary["means"][name], mean, rel_tol=REL_TOL):
            problems.append(f"summary mean of {name} disagrees with the per-seed reports")
    return problems


def _column(rows: list[list[float]], j: int) -> list[float]:
    return [row[j] for row in rows]


# The curve files print 10 significant digits.
_CURVE_TOL = 1e-9


def _check_sn_curves(curves: dict, checkpoints: list[int], network_dir: Path) -> list[str]:
    """The structured-node curves must match the same network's generate output."""
    n_nodes, edges = read_edges(network_dir / "edges.tsv")
    report = json.loads((network_dir / "metrics.json").read_text(encoding="utf-8"))
    problems = []
    for row in curves["average_degree"]:
        c = int(row[0])
        expected = 2.0 * sum(1 for _, v in edges if v < c) / c
        if not math.isclose(row[1], expected, rel_tol=_CURVE_TOL):
            problems.append(f"sn average_degree at {c}: {row[1]} != {expected}")
    if checkpoints[-1] == n_nodes:
        for name in ("average_path_length", "average_clustering"):
            if not math.isclose(curves[name][-1][1], report[name], rel_tol=_CURVE_TOL):
                problems.append(f"sn {name} at {n_nodes} disagrees with the full report")
    return problems


def _check_ba_curves(curves: dict, checkpoints: list[int], clique: int = 6, per_node: int = 6) -> list[str]:
    """Preferential attachment adds a fixed number of edges per node, so its degree curve is exact."""
    problems = []
    for row in curves["average_degree"]:
        c = int(row[0])
        expected = 2.0 * (clique * (clique - 1) // 2 + per_node * (c - clique)) / c
        if not math.isclose(row[2], expected, rel_tol=_CURVE_TOL):
            problems.append(f"ba average_degree at {c}: {row[2]} != {expected}")
    for row in curves["average_path_length"]:
        if not 1.0 <= row[2] < row[0]:
            problems.append(f"ba average_path_length {row[2]} out of range at {row[0]:.0f}")
    for row in curves["average_clustering"]:
        if not 0.0 <= row[2] <= 1.0:
            problems.append(f"ba average_clustering {row[2]} outside [0, 1]")
    return problems
