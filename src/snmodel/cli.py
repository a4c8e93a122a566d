"""Command-line front end.

Subcommands: generate (one network), metrics (report on an edge list),
experiment (multi-seed run with summary), compare-ba (growth curves against
the preferential-attachment baseline), prune (degree filter on an edge list).
Every instance-file key of ``experiments.INSTANCE_KEYS`` has a flag of the
same name; flags override file values and are converted by the same table.
The other number flags go through the same converter.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import NoReturn

from . import experiments, fileio
from .ba import BAParams
from .growth import prune_low_degree
from .metrics import compute_metrics

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", type=Path, help="instance file (key = value text)")
    for key in experiments.INSTANCE_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), help=f"override {key}")


def _config_from_args(args: argparse.Namespace) -> experiments.ExperimentConfig:
    mapping: dict[str, str] = {}
    base_dir: Path | None = None
    if args.instance is not None:
        mapping = experiments.parse_key_values(args.instance.read_text(encoding="utf-8"))
        base_dir = args.instance.parent
    for key in experiments.INSTANCE_KEYS:
        value = getattr(args, key)
        if value is not None:
            if key == "match_file" and value:
                # CLI paths are relative to the working directory, not the
                # file; an empty one means no table.
                value = str(Path(value).resolve())
            mapping[key] = value
    return experiments.config_from_mapping(mapping, base_dir)


def _metric_names(text: str | None) -> tuple[str, ...]:
    """Comma-separated metric names, or the default metrics when *text* is unset."""
    if not text:
        return experiments.DEFAULT_REFERENCED_METRICS
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    net, trace = experiments.run_single(config.instance)
    report = compute_metrics(net, fit_k_min=args.fit_k_min)
    fileio.write_network(args.out, net, report)
    if trace.saturated:
        grown = len(config.instance.initial_structures) + trace.accepted  # before any pruning
        print(f"warning: growth stopped at {grown} of {config.instance.target_nodes} target nodes"
              f" after {trace.attempts} attempts", file=sys.stderr)
    print(f"wrote network with {net.n_nodes} nodes, {net.n_edges} edges to {args.out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    net = fileio.read_edge_list(args.edges)
    report = compute_metrics(net, fit_k_min=args.fit_k_min)
    if args.out is None:
        sys.stdout.write(fileio.render_json(fileio.report_to_dict(report, fileio.METRICS_FORMAT)))
    else:
        fileio.write_metrics(args.out, report)
        print(f"wrote metrics to {args.out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    reference = None
    if args.reference is not None:
        text = Path(args.reference).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except RecursionError:  # json's decoder recurses once per nested array or object
            raise ValueError("reference nests too deeply") from None
        # A summary.json serves as a reference through its means.
        reference = payload.get("means", payload) if isinstance(payload, dict) else payload
        if reference is None:  # null would otherwise read as no reference at all
            raise ValueError("reference must map metric names to numbers")
    summary = experiments.run_experiment(
        config,
        args.out,
        referenced_metrics=_metric_names(args.referenced_metrics),
        reference=reference,
        fit_k_min=args.fit_k_min,
    )
    print(
        f"{summary.n_seeds} seeds: "
        + ", ".join(
            f"{name}={value:.4g}"
            for name, value in summary.means.items()
            if value is not None
        )
    )
    print(f"within 10%: {summary.within_10:.0%}, within 20%: {summary.within_20:.0%}")
    return 0


def _cmd_compare_ba(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    target = config.instance.target_nodes
    if args.checkpoints:
        checkpoints = args.checkpoints
    else:
        interval = config.checkpoint_interval or target
        checkpoints = list(range(interval, target + 1, interval))
    ba = BAParams(
        target_nodes=target,
        initial_clique=args.ba_clique,
        edges_per_node=args.ba_edges,
        seed=config.instance.seed,
    )
    curves = experiments.run_growth_comparison(
        config.instance,
        ba,
        checkpoints,
        n_seeds=config.n_seeds,
        output_directory=args.out,
        metric_names=_metric_names(args.metrics),
    )
    written = {c for curve in curves.values() for c in curve["sn"]}
    print(f"wrote comparison curves for {len(written)} checkpoints to {args.out}")
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    net = fileio.read_edge_list(args.edges)
    pruned = prune_low_degree(net, args.min_degree)
    fileio.write_edge_list(args.out, pruned)
    print(
        f"kept {pruned.n_nodes} of {net.n_nodes} nodes "
        f"({pruned.n_edges} edges) in {args.out}"
    )
    return 0


def _node_counts(text: str) -> list[int]:
    """Comma-separated node counts, each at least 1."""
    counts = [int(c) for c in text.split(",")]
    for count in counts:
        if count < 1:
            raise ValueError(f"node count {count} is below 1")
    return counts


#: The number flags that are not instance keys: destination -> converter.
_NUMBER_FLAGS = {
    "fit_k_min": int,
    "ba_clique": int,
    "ba_edges": int,
    "min_degree": int,
    "checkpoints": _node_counts,
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ValueErrors, so they end like any bad input."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snm",
        description="Structured-node network model: generation, metrics, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="grow one network and write its artifacts")
    _add_config_flags(p)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--fit-k-min", help="fit a power law for k >= this")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("metrics", help="compute the metrics report of an edge list")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--out", type=Path, default=None, help="JSON output path (default stdout)")
    p.add_argument("--fit-k-min")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("experiment", help="run a multi-seed experiment with a summary")
    _add_config_flags(p)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--fit-k-min")
    p.add_argument("--reference", type=Path, default=None, help="reference metrics JSON")
    p.add_argument(
        "--referenced-metrics",
        default=None,
        help="comma-separated metric names for the discrepancy fractions",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("compare-ba", help="metric growth curves against the BA baseline")
    _add_config_flags(p)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--checkpoints", default=None, help="comma-separated node counts")
    p.add_argument("--ba-clique", default="6")
    p.add_argument("--ba-edges", default="6")
    p.add_argument("--metrics", default=None, help="comma-separated curve metrics")
    p.set_defaults(func=_cmd_compare_ba)

    p = sub.add_parser("prune", help="drop nodes below a degree threshold from an edge list")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--min-degree", required=True)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=_cmd_prune)

    return parser


#: The parser of every main call, built by the first: building costs milliseconds.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one snm command; each warning it raises is one ``warning:`` line on stderr."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    with warnings.catch_warnings():  # gives an in-process caller its own handler back
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _parser.parse_args(argv)
            for key, convert in _NUMBER_FLAGS.items():
                if getattr(args, key, None) is not None:
                    setattr(args, key, experiments.convert_value(key, convert, getattr(args, key)))
            return args.func(args)
        except (ValueError, OSError, MemoryError) as exc:
            # A MemoryError raised before allocating, as for a huge node count, has no message.
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
