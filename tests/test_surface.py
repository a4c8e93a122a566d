"""Public surface guard for ``snmodel.distance``, ``snmodel.experiments``,
``snmodel.metrics``, ``snmodel.growth``, ``snmodel.structures``,
``GroupIndex`` and ``Network``.

Their public functions and methods, and the public attributes a ``Network``
instance holds, must equal the explicit list below, and each listed name
must have a user: the package's ``__all__``, the benchmark's tracer, or a
call elsewhere in ``src/``. A helper that only tests use cannot return
unnoticed, and a name whose last user is gone shows up too. Every private
name ``src/`` binds must be loaded in ``src/`` outside its own definition.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path

import snmodel
from snmodel import distance, experiments, growth, metrics, structures
from snmodel.network import Network

ROOT = Path(__file__).resolve().parents[1]
HINT = (
    "the public surface of distance, experiments, metrics, growth, structures, GroupIndex or "
    "Network (its methods or the attributes an instance holds) changed: update SURFACE in "
    "tests/test_surface.py, the README's lower-level entry points and ROADMAP item 5"
)

SURFACE = {
    "snmodel.distance": {"parse_match_file", "structure_distance", "within_max_distance"},
    "snmodel.experiments": {
        "config_from_mapping",
        "convert_value",
        "load_instance_file",
        "parse_instance_file",
        "parse_key_values",
        "run_experiment",
        "run_growth_comparison",
        "run_single",
        "summarize",
    },
    "snmodel.metrics": {
        "average_clustering",
        "average_degree",
        "average_path_length",
        "compute_metrics",
        "degree_distribution",
        "degree_histogram",
        "fit_power_law_slope",
        "heterogeneity_index",
        "largest_component",
        "local_clustering",
        "motif_census_3",
        "path_length_histogram",
        "triangle_count",
    },
    "snmodel.growth": {"grow", "prune_low_degree"},
    "snmodel.structures": {"apply_random_edit", "below", "edit_space_size"},
    "GroupIndex": {"add", "append", "distances", "encode", "join", "pop"},
    "Network": {
        "degrees",
        "induced_prefix",
        "n_edges",
        "n_nodes",
        "subgraph",
        "to_csr",
    },
    "Network instance": {"edge_u", "edge_v", "structures"},
}

def _public(owner) -> set[str]:
    if inspect.isclass(owner):
        return {name for name in vars(owner) if not name.startswith("_")}
    return {
        name
        for name, value in vars(owner).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == owner.__name__
    }


def _traced() -> set[str]:
    """The attributes the benchmark's tracer and network clock replace."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    clock, spans = tracer.NetworkClock(), tracer.Tracer()
    try:
        clock.install()
        spans.install()
        return {attr for _, attr, _ in clock._patches._originals + spans._patches._originals}
    finally:
        spans.uninstall()
        clock.uninstall()


def _called_in_src() -> set[str]:
    """Names src/ loads outside a definition of the same name."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sorted((ROOT / "src" / "snmodel").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_public_surface_is_the_listed_one():
    for owner in (distance, experiments, metrics, growth, structures, growth.GroupIndex, Network):
        name = owner.__name__ if not inspect.isclass(owner) else owner.__qualname__
        assert _public(owner) == SURFACE[name], HINT
    held = {name for name in vars(Network(["A", "B"], [0], [1])) if not name.startswith("_")}
    assert held == SURFACE["Network instance"], HINT


def test_every_listed_name_has_a_user():
    users = set(snmodel.__all__) | _traced() | _called_in_src()
    listed = set().union(*SURFACE.values())
    assert listed <= users, f"{sorted(listed - users)} have no user; {HINT}"


def _private_bound_in_src() -> set[str]:
    """The private names src/ binds: by def, class, assignment or ``self._name =``."""
    found: set[str] = set()
    for path in sorted((ROOT / "src" / "snmodel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    found.add(node.attr)
    dunder = {name for name in found if name.startswith("__") and name.endswith("__")}
    return {name for name in found if name.startswith("_") and name != "_"} - dunder


def test_every_private_name_has_a_src_user():
    # A private name nothing in src/ loads outside its own definition is dead code.
    unused = _private_bound_in_src() - _called_in_src()
    assert not unused, f"{sorted(unused)} are bound in src/ but never loaded there"
