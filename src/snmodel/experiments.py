"""Instance files, multi-seed experiment runs, and growth-curve comparisons.

An instance file is "key = value" text; `run_experiment` executes one parsed
configuration across consecutive seeds, writes per-seed artifacts plus an
aggregate summary, and `run_growth_comparison` produces the metric-versus-size
curves for the structured-node model against the preferential-attachment
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import fileio
from .ba import BAParams, grow_ba
from .distance import DistanceConfig, parse_match_file
from .growth import BATCH, INCREMENTAL, Instance, grow, prune_low_degree
from .metrics import (
    MetricsReport,
    average_clustering,
    average_degree,
    average_path_length,
    compute_metrics,
)
from .network import Network
from .structures import Alphabet, EditProbabilities

_REQUIRED_KEYS = ("alphabet", "initial", "unit_distance", "max_distance", "target_nodes")
_OPTIONAL_KEYS = (
    "p_mutate",
    "p_insert",
    "p_delete",
    "p_duplicate",
    "match_file",
    "max_attempts",
    "mode",
    "prune_min_degree",
    "seed",
    "n_seeds",
    "checkpoint_interval",
)
KNOWN_KEYS = frozenset(_REQUIRED_KEYS + _OPTIONAL_KEYS)

#: Metrics used for the discrepancy fractions unless the caller overrides.
DEFAULT_REFERENCED_METRICS = (
    "average_degree",
    "average_path_length",
    "average_clustering",
)


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
        if key not in KNOWN_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str, conv: Callable):
    try:
        return conv(value)
    except ValueError:
        raise ValueError(f"key {key!r}: cannot parse value {value!r}") from None


def config_from_mapping(
    mapping: Mapping[str, str],
    base_dir: str | Path | None = None,
) -> ExperimentConfig:
    """Build a validated configuration from raw key/value strings.

    ``match_file`` paths are resolved against *base_dir* (the directory of
    the instance file they came from).
    """
    for key in mapping:
        if key not in KNOWN_KEYS:
            raise ValueError(f"unknown key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in mapping:
            raise ValueError(f"missing required key {key!r}")

    alphabet = Alphabet.from_string(mapping["alphabet"])
    initial = tuple(w.strip() for w in mapping["initial"].split(";") if w.strip())
    if not initial:
        raise ValueError("key 'initial': needs at least one structure")
    probs = EditProbabilities(
        mutate=_convert("p_mutate", mapping.get("p_mutate", "0"), float),
        insert=_convert("p_insert", mapping.get("p_insert", "0"), float),
        delete=_convert("p_delete", mapping.get("p_delete", "0"), float),
        duplicate=_convert("p_duplicate", mapping.get("p_duplicate", "0"), float),
    )
    unit = _convert("unit_distance", mapping["unit_distance"], int)
    max_distance = _convert("max_distance", mapping["max_distance"], int)

    table = None
    if mapping.get("match_file"):
        path = Path(mapping["match_file"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        table = parse_match_file(path.read_text(encoding="utf-8"), unit, alphabet)
    distance = DistanceConfig(unit, max_distance, match_table=table)

    max_attempts = None
    if mapping.get("max_attempts"):
        max_attempts = _convert("max_attempts", mapping["max_attempts"], int)

    instance = Instance(
        alphabet=alphabet,
        initial_structures=initial,
        probs=probs,
        distance=distance,
        target_nodes=_convert("target_nodes", mapping["target_nodes"], int),
        max_attempts=max_attempts,
        mode=mapping.get("mode", INCREMENTAL),
        prune_min_degree=_convert(
            "prune_min_degree", mapping.get("prune_min_degree", "0"), int
        ),
        seed=_convert("seed", mapping.get("seed", "0"), int),
    )
    return ExperimentConfig(
        instance=instance,
        n_seeds=_convert("n_seeds", mapping.get("n_seeds", "1"), int),
        checkpoint_interval=_convert(
            "checkpoint_interval", mapping.get("checkpoint_interval", "0"), int
        ),
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

    if reference is None:
        ref = {m: means[m] for m in referenced_metrics if means[m] is not None}
    else:
        ref = {m: float(reference[m]) for m in referenced_metrics if m in reference}

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
        referenced_metrics=tuple(referenced_metrics),
    )


def summary_to_dict(summary: SummaryReport) -> dict:
    return {
        "format": fileio.SUMMARY_FORMAT,
        "n_seeds": summary.n_seeds,
        "means": summary.means,
        "stds": summary.stds,
        "within_10": summary.within_10,
        "within_20": summary.within_20,
        "reference": summary.reference,
        "referenced_metrics": list(summary.referenced_metrics),
    }


def run_single(instance: Instance, checkpoint_interval: int = 0) -> Network:
    """Grow (and prune, when configured) one network."""
    net, _ = grow(instance, checkpoint_interval=checkpoint_interval)
    if instance.prune_min_degree > 0:
        net = prune_low_degree(net, instance.prune_min_degree)
    return net


def run_experiment(
    config: ExperimentConfig,
    output_directory: str | Path,
    referenced_metrics: Sequence[str] = DEFAULT_REFERENCED_METRICS,
    reference: Mapping[str, float] | None = None,
    fit_k_min: int | None = None,
) -> SummaryReport:
    """Run n_seeds generations with seeds seed, seed+1, ... and write artifacts.

    Each seed gets its own directory with the edge list, the structure list,
    the metrics report, and the degree/path-length distributions; the
    aggregate lands in summary.json.
    """
    out = Path(output_directory)
    out.mkdir(parents=True, exist_ok=True)
    reports: list[MetricsReport] = []
    for i in range(config.n_seeds):
        instance = replace(config.instance, seed=config.instance.seed + i)
        net = run_single(instance, config.checkpoint_interval)
        report = compute_metrics(net, fit_k_min=fit_k_min)
        reports.append(report)

        seed_dir = out / f"seed_{instance.seed:05d}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        fileio.write_edge_list(seed_dir / "edges.tsv", net)
        if any(s is not None for s in net.structures):
            fileio.write_structures(seed_dir / "structures.tsv", net)
        fileio.write_metrics(seed_dir / "metrics.json", report)
        fileio.write_distribution(
            seed_dir / "degree_distribution.tsv",
            report.degree_distribution,
            "degree",
            "fraction",
        )
        fileio.write_distribution(
            seed_dir / "path_length_distribution.tsv",
            report.path_length_distribution,
            "path_length",
            "fraction",
        )

    summary = summarize(reports, referenced_metrics, reference)
    fileio.write_json(out / "summary.json", summary_to_dict(summary))
    return summary


def run_growth_comparison(
    sn_instance: Instance,
    ba_params: BAParams,
    checkpoints: Sequence[int],
    n_seeds: int,
    output_directory: str | Path | None = None,
    metric_names: Sequence[str] = ("average_degree", "average_path_length", "average_clustering"),
) -> dict[str, dict[str, dict[int, float]]]:
    """Seed-averaged metric curves for both models at the given node counts.

    Growth order makes the subgraph on the first n nodes equal to the
    intermediate network at size n, so each run is grown once and sliced.
    Returns {metric: {"sn" | "ba": {checkpoint: mean}}} and, when an output
    directory is given, writes one "n_nodes sn ba" file per metric.
    """
    checkpoints = sorted(checkpoints)
    if not checkpoints:
        raise ValueError("run_growth_comparison requires at least one checkpoint")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if checkpoints[-1] > sn_instance.target_nodes or checkpoints[-1] > ba_params.target_nodes:
        raise ValueError("checkpoints exceed the configured target size")

    evaluators: dict[str, Callable[[Network], float]] = {
        "average_degree": average_degree,
        "average_path_length": average_path_length,
        "average_clustering": average_clustering,
    }
    for name in metric_names:
        if name not in evaluators:
            raise ValueError(f"unknown comparison metric {name!r}")

    sums: dict[str, dict[str, dict[int, float]]] = {
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
        for label, net in (("sn", sn_net), ("ba", ba_net)):
            for c in checkpoints:
                prefix = net.induced_prefix(c)
                for name in metric_names:
                    sums[name][label][c] += evaluators[name](prefix)

    curves = {
        name: {
            label: {c: total / n_seeds for c, total in per_label.items()}
            for label, per_label in per_name.items()
        }
        for name, per_name in sums.items()
    }

    if output_directory is not None:
        out = Path(output_directory)
        out.mkdir(parents=True, exist_ok=True)
        for name in metric_names:
            lines = ["# snm comparison v1", "# n_nodes\tsn\tba"]
            for c in checkpoints:
                sn_v = curves[name]["sn"][c]
                ba_v = curves[name]["ba"][c]
                lines.append(f"{c}\t{sn_v:.10g}\t{ba_v:.10g}")
            (out / f"comparison_{name}.tsv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
    return curves
