"""Instance files, multi-seed experiment runs, and growth-curve comparisons.

An instance file is "key = value" text; `run_experiment` executes one parsed
configuration across consecutive seeds, writes per-seed artifacts plus an
aggregate summary, and `run_growth_comparison` produces the metric-versus-size
curves for the structured-node model against the preferential-attachment
baseline.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from . import fileio
from .ba import BAParams, grow_ba
from .distance import DistanceConfig, parse_match_file
from .growth import BATCH, INCREMENTAL, GrowthTrace, Instance, grow, prune_low_degree
from .metrics import MetricsReport, _each_on_cpus, compute_metrics

# Every metric comes from compute_metrics; these names are kept for the
# benchmark's tracer (perfbench/tracer.py), which wraps experiments.<name>.
from .metrics import average_clustering, average_path_length  # noqa: F401
from .network import Network
from .structures import Alphabet, EditProbabilities

T = TypeVar("T")


def _initial(text: str) -> tuple[str, ...]:
    words = tuple(w.strip() for w in text.split(";") if w.strip())
    if not words:
        raise ValueError("needs at least one structure")
    return words


def _optional_int(text: str) -> int | None:
    return int(text) if text else None


#: Every instance key: the converter of its text and its default text; a
#: default of None marks a required key. Instance files, CLI flags and the
#: README table all derive from this one table.
INSTANCE_KEYS: dict[str, tuple[Callable[[str], object], str | None]] = {
    "alphabet": (Alphabet.from_string, None),
    "initial": (_initial, None),
    "p_mutate": (float, "0"),
    "p_insert": (float, "0"),
    "p_delete": (float, "0"),
    "p_duplicate": (float, "0"),
    "unit_distance": (int, None),
    "max_distance": (int, None),
    "match_file": (str, ""),
    "target_nodes": (int, None),
    "max_attempts": (_optional_int, ""),
    "mode": (str, INCREMENTAL),
    "prune_min_degree": (int, "0"),
    "seed": (int, "0"),
    "n_seeds": (int, "1"),
    "checkpoint_interval": (int, "0"),
}


#: Metrics of the discrepancy fractions and of the comparison curves unless
#: the caller overrides.
DEFAULT_REFERENCED_METRICS = ("average_degree", "average_path_length", "average_clustering")


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed instance file plus run-harness settings."""

    instance: Instance
    n_seeds: int = 1
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")


def convert_value(key: str, convert: Callable[[str], T], text: str) -> T:
    """*text* converted by *convert*; a bad value is one ValueError naming *key*."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"key {key!r}: cannot parse value {text!r} ({exc})") from None


def parse_key_values(text: str) -> dict[str, str]:
    """Raw "key = value" lines; '#' starts a comment and blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in INSTANCE_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def config_from_mapping(
    mapping: Mapping[str, str],
    base_dir: str | Path | None = None,
) -> ExperimentConfig:
    """Build a validated configuration from raw key/value strings.

    Every key of ``INSTANCE_KEYS`` is converted once from its text, or from
    its default text when *mapping* lacks it. ``match_file`` paths are
    resolved against *base_dir* (the directory of the instance file they
    came from); an empty one means no match table.
    """
    for key in mapping:
        if key not in INSTANCE_KEYS:
            raise ValueError(f"unknown key {key!r}")
    v: dict = {}
    for key, (convert, default) in INSTANCE_KEYS.items():
        text = mapping.get(key, default)
        if text is None:
            raise ValueError(f"missing required key {key!r}")
        v[key] = convert_value(key, convert, text)

    table = None
    if v["match_file"]:
        path = Path(v["match_file"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        table = parse_match_file(
            path.read_text(encoding="utf-8"), v["unit_distance"], v["alphabet"]
        )
    instance = Instance(
        alphabet=v["alphabet"],
        initial_structures=v["initial"],
        probs=EditProbabilities(
            mutate=v["p_mutate"],
            insert=v["p_insert"],
            delete=v["p_delete"],
            duplicate=v["p_duplicate"],
        ),
        distance=DistanceConfig(v["unit_distance"], v["max_distance"], match_table=table),
        target_nodes=v["target_nodes"],
        max_attempts=v["max_attempts"],
        mode=v["mode"],
        prune_min_degree=v["prune_min_degree"],
        seed=v["seed"],
    )
    return ExperimentConfig(
        instance=instance,
        n_seeds=v["n_seeds"],
        checkpoint_interval=v["checkpoint_interval"],
    )


def parse_instance_file(text: str, base_dir: str | Path | None = None) -> ExperimentConfig:
    return config_from_mapping(parse_key_values(text), base_dir)


def load_instance_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_instance_file(path.read_text(encoding="utf-8"), path.parent)


@dataclass(frozen=True)
class SummaryReport:
    """Aggregate over the seeds of one experiment."""

    n_seeds: int
    means: dict[str, float | None]
    stds: dict[str, float | None]
    within_10: float
    within_20: float
    reference: dict[str, float]
    referenced_metrics: tuple[str, ...]


_SCALAR_FIELDS = (
    "n_nodes",
    "n_edges",
    "average_degree",
    "average_path_length",
    "average_clustering",
    "heterogeneity",
    "largest_component_fraction",
)


def _scalars(report: MetricsReport) -> dict[str, float | None]:
    return {name: getattr(report, name) for name in _SCALAR_FIELDS}


def _metric_list(names: Sequence[str]) -> tuple[str, ...]:
    """*names* in their order, each once; ValueError when empty or naming no scalar field."""
    distinct = tuple(dict.fromkeys(names))
    if not distinct:
        raise ValueError("the metric list names no metric")
    for name in distinct:
        if name not in _SCALAR_FIELDS:
            raise ValueError(f"unknown metric {name!r}; known metrics: {', '.join(_SCALAR_FIELDS)}")
    return distinct


def _checked_reference(
    referenced_metrics: Sequence[str], reference: Mapping[str, float] | None
) -> tuple[tuple[str, ...], dict[str, float] | None]:
    """The referenced metrics, each once, and their reference values (None without one).

    Raises ValueError for an empty or unknown metric list, and for a reference
    that is not a mapping of metric names to finite numbers or that names none
    of the referenced metrics: every seed would match it, as it would a NaN.
    """
    referenced_metrics = _metric_list(referenced_metrics)
    if reference is None:
        return referenced_metrics, None
    if not isinstance(reference, Mapping):
        raise ValueError("reference must map metric names to numbers")
    ref = {}
    for m in referenced_metrics:
        if m in reference:
            value = reference[m]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"reference value of {m!r} must be a number, got {value!r}")
            # NaN fails every comparison; an int beyond the float range would overflow.
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError(f"reference value of {m!r} must be finite, got {value!r}")
            ref[m] = float(value)
    if not ref:
        raise ValueError(f"reference names none of the metrics {', '.join(referenced_metrics)}")
    return referenced_metrics, ref


def summarize(
    reports: Sequence[MetricsReport],
    referenced_metrics: Sequence[str] = DEFAULT_REFERENCED_METRICS,
    reference: Mapping[str, float] | None = None,
) -> SummaryReport:
    """Means, stds, and discrepancy fractions over per-seed reports.

    The discrepancy of a metric is |value - reference| / reference; a seed
    falls within a tolerance band only when every referenced metric does.
    Without an explicit reference the per-metric means act as the reference.
    """
    if not reports:
        raise ValueError("summarize requires at least one report")
    referenced_metrics, ref = _checked_reference(referenced_metrics, reference)
    rows = [_scalars(r) for r in reports]
    means: dict[str, float | None] = {}
    stds: dict[str, float | None] = {}
    for name in _SCALAR_FIELDS:
        values = [row[name] for row in rows if row[name] is not None]
        if values:
            means[name] = float(np.mean(values))
            stds[name] = float(np.std(values))
        else:
            means[name] = None
            stds[name] = None

    if ref is None:
        ref = {m: means[m] for m in referenced_metrics if means[m] is not None}

    def qualifies(row: dict[str, float | None], tol: float) -> bool:
        for metric, target in ref.items():
            value = row.get(metric)
            if value is None:
                return False
            if target == 0:
                if value != 0:
                    return False
            elif abs(value - target) / abs(target) > tol:
                return False
        return True

    n = len(rows)
    within_10 = sum(qualifies(row, 0.10) for row in rows) / n
    within_20 = sum(qualifies(row, 0.20) for row in rows) / n
    return SummaryReport(
        n_seeds=n,
        means=means,
        stds=stds,
        within_10=within_10,
        within_20=within_20,
        reference=ref,
        referenced_metrics=referenced_metrics,
    )


def run_single(instance: Instance) -> tuple[Network, GrowthTrace]:
    """Grow (and prune, when configured) one network; the trace is growth's."""
    net, trace = grow(instance)
    if instance.prune_min_degree > 0:
        net = prune_low_degree(net, instance.prune_min_degree)
    return net, trace


def run_experiment(
    config: ExperimentConfig,
    output_directory: str | Path,
    referenced_metrics: Sequence[str] = DEFAULT_REFERENCED_METRICS,
    reference: Mapping[str, float] | None = None,
    fit_k_min: int | None = None,
) -> SummaryReport:
    """Run n_seeds generations with seeds seed, seed+1, ... and write artifacts.

    Each seed gets its own directory with the edge list, the structure list,
    the metrics report, and the degree/path-length distributions. Seeds are
    grown, measured and written through ``fileio.write_networks``: where it
    can fork, the caller and one child each take the next seed whenever they
    are free, and the child writes every seed in order. The aggregate lands
    in summary.json once every seed's artifacts are written.
    """
    _checked_reference(referenced_metrics, reference)  # fail before any growth
    out = Path(output_directory)
    out.mkdir(parents=True, exist_ok=True)

    def make(i: int) -> tuple[Path, Network, MetricsReport]:
        instance = replace(config.instance, seed=config.instance.seed + i)
        net, _ = run_single(instance)
        return out / f"seed_{instance.seed:05d}", net, compute_metrics(net, fit_k_min=fit_k_min)

    reports = fileio.write_networks(config.n_seeds, make)
    summary = summarize(reports, referenced_metrics, reference)
    fileio.write_json(out / "summary.json", fileio.report_to_dict(summary, fileio.SUMMARY_FORMAT))
    return summary


def run_growth_comparison(
    sn_instance: Instance,
    ba_params: BAParams,
    checkpoints: Sequence[int],
    n_seeds: int,
    output_directory: str | Path | None = None,
    metric_names: Sequence[str] = DEFAULT_REFERENCED_METRICS,
) -> dict[str, dict[str, dict[int, float]]]:
    """Seed-averaged metric curves for both models at the given node counts.

    Incremental growth makes the subgraph on the first n nodes equal to the
    intermediate network at size n, so each run is grown once and sliced.
    Batch growth drops isolated nodes, so a batch instance is rejected. Each
    value is read from one ``compute_metrics`` report per prefix. A seed's
    reports share the CPUs (``metrics._each_on_cpus``) and are read sn first,
    checkpoints ascending, so sums and errors do not depend on the CPU count.
    A checkpoint or metric given twice counts once. Returns {metric: {"sn" |
    "ba": {checkpoint: mean}}} and, when an output directory is given, writes
    one "n_nodes sn ba" file per metric.
    """
    if sn_instance.mode == BATCH:
        raise ValueError("compare-ba needs mode = incremental, not batch")
    checkpoints = sorted(set(checkpoints))
    if not checkpoints:
        raise ValueError("run_growth_comparison requires at least one checkpoint")
    if checkpoints[0] < 1:
        raise ValueError(f"checkpoint {checkpoints[0]} is below 1")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if checkpoints[-1] > sn_instance.target_nodes or checkpoints[-1] > ba_params.target_nodes:
        raise ValueError("checkpoints exceed the configured target size")
    metric_names = _metric_list(metric_names)

    curves: dict[str, dict[str, dict[int, float]]] = {
        name: {"sn": {c: 0.0 for c in checkpoints}, "ba": {c: 0.0 for c in checkpoints}}
        for name in metric_names
    }
    for i in range(n_seeds):
        sn_net, _ = grow(replace(sn_instance, seed=sn_instance.seed + i))
        if sn_net.n_nodes < checkpoints[-1]:
            raise ValueError(
                f"growth saturated at {sn_net.n_nodes} nodes before checkpoint {checkpoints[-1]}"
            )
        ba_net = grow_ba(replace(ba_params, seed=ba_params.seed + i))
        nets = {"sn": sn_net, "ba": ba_net}
        prefixes = [(label, c) for label in nets for c in checkpoints]
        rows = _each_on_cpus(
            lambda p: _scalars(compute_metrics(nets[p[0]].induced_prefix(p[1]))), prefixes
        )
        for (label, c), row in zip(prefixes, rows):
            for name in metric_names:
                if row[name] is None:
                    raise ValueError(
                        f"{name} is undefined on the {label} network at checkpoint {c}"
                    )
                curves[name][label][c] += row[name]
    for per_name in curves.values():  # the seed sums become means
        for per_label in per_name.values():
            for c, total in per_label.items():
                per_label[c] = total / n_seeds

    if output_directory is not None:
        out = Path(output_directory)
        out.mkdir(parents=True, exist_ok=True)
        for name in metric_names:
            fileio.write_comparison(out / f"comparison_{name}.tsv", curves[name])
    return curves
