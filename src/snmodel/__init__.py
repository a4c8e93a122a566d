"""Structured-node network model, baseline generator, and metrics toolkit."""

from __future__ import annotations

from pathlib import Path

from .ba import BAParams, grow_ba
from .distance import (
    DistanceConfig,
    parse_match_file,
    structure_distance,
    within_max_distance,
)
from .experiments import (
    ExperimentConfig,
    SummaryReport,
    load_instance_file,
    parse_instance_file,
    run_experiment,
    run_growth_comparison,
    run_single,
    summarize,
)
from .growth import (
    BATCH,
    INCREMENTAL,
    GrowthTrace,
    Instance,
    grow,
    prune_low_degree,
)
from .metrics import MetricsReport, compute_metrics, fit_power_law_slope
from .network import Network
from .structures import Alphabet, Edit, EditProbabilities, apply_random_edit

__version__ = "0.1.0"


def instances_dir() -> Path:
    """Directory holding the shipped instance and match files."""
    return Path(__file__).parent / "instances"


__all__ = [
    "Alphabet",
    "BAParams",
    "BATCH",
    "DistanceConfig",
    "Edit",
    "EditProbabilities",
    "ExperimentConfig",
    "GrowthTrace",
    "INCREMENTAL",
    "Instance",
    "MetricsReport",
    "Network",
    "SummaryReport",
    "apply_random_edit",
    "compute_metrics",
    "fit_power_law_slope",
    "grow",
    "grow_ba",
    "instances_dir",
    "load_instance_file",
    "parse_instance_file",
    "parse_match_file",
    "prune_low_degree",
    "run_experiment",
    "run_growth_comparison",
    "run_single",
    "structure_distance",
    "summarize",
    "within_max_distance",
]
