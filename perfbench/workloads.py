"""Workload definitions: the `snm` command lines each workload runs.

A workload is a list of CLI calls, each with the argv a user would type from
the repository root. The harness seed becomes the CLI's ``--seed``, so the
same seed always gives the same inputs. ``tiny`` shrinks every call to a few
hundred nodes for the benchmark's self-tests; the measured workloads never
use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

INSTANCES = Path("src/snmodel/instances")

#: Node count and attempt budget of grow-sparse. The neighbour scan is
#: O(N^2 * groups), so this size keeps it the dominant cost while several
#: passes still fit in one run; the shipped 55k-attempt run takes minutes.
GROW_SPARSE_NODES = 10000

COMPARE_CHECKPOINTS = "500,1000,1500,2000,2500,3000"


@dataclass(frozen=True)
class Call:
    """One CLI call and the networks it is expected to produce."""

    kind: str  # "generate" | "experiment" | "compare-ba"
    instance: Path
    argv: tuple[str, ...]
    out: Path
    #: For experiment: the seeds it writes one directory for.
    seeds: tuple[int, ...] = ()
    #: For compare-ba: the generate output of the same structured-node
    #: network, used to cross-check its curves.
    same_network_as: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[Path, ...]
    #: Typical seconds of one pass at the commit that defined the benchmark
    #: (2-core x86 host, one BLAS thread). A run makes a fixed number of
    #: passes, ``--seconds`` over this, so the count does not depend on how
    #: fast the code under test is.
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grow-sparse",
            "long structures at max_distance 1: the O(N^2*G) neighbour scan is most of "
            "the wall time and pruning leaves a small network, so metrics are nearly free",
            (INSTANCES / "pruned.instance",),
            7.7,
        ),
        Workload(
            "experiment-small",
            "many small networks (celegans, ecoli, batch): per-network overhead of edit "
            "draws, encoding, fixed metric cost and artifact writing dominates",
            (
                INSTANCES / "celegans.instance",
                INSTANCES / "ecoli.instance",
                INSTANCES / "batch.instance",
            ),
            11.0,
        ),
        Workload(
            "metrics-dense",
            "a 3000-node, 24.7k-edge network: path-length sweeps in one full report and "
            "twelve compare-ba prefix curves dominate; growth is a few percent",
            (INSTANCES / "comparison.instance",),
            16.2,
        ),
    )
}


def _experiment(instance: str, seed: int, n_seeds: int, out: Path, extra: tuple = ()) -> Call:
    path = INSTANCES / instance
    argv = ("experiment", "--instance", str(path), "--n-seeds", str(n_seeds))
    argv += extra + ("--seed", str(seed), "--out", str(out))
    return Call("experiment", path, argv, out, tuple(range(seed, seed + n_seeds)))


def calls(name: str, seed: int, out: Path, tiny: bool = False) -> list[Call]:
    """The CLI calls of workload *name* for harness seed *seed*, writing under *out*."""
    tag = f"seed_{seed:05d}"
    if name == "grow-sparse":
        n = "400" if tiny else str(GROW_SPARSE_NODES)
        path = INSTANCES / "pruned.instance"
        dest = out / "pruned" / tag
        argv = ("generate", "--instance", str(path), "--target-nodes", n, "--max-attempts", n)
        return [Call("generate", path, argv + ("--seed", str(seed), "--out", str(dest)), dest)]
    if name == "experiment-small":
        return [
            _experiment("celegans.instance", seed, 3 if tiny else 100, out / "celegans"),
            _experiment("ecoli.instance", seed, 2 if tiny else 30, out / "ecoli"),
            _experiment(
                "batch.instance",
                seed,
                1 if tiny else 2,
                out / "batch",
                ("--target-nodes", "100") if tiny else (),
            ),
        ]
    if name == "metrics-dense":
        path = INSTANCES / "comparison.instance"
        size = ("--target-nodes", "300") if tiny else ()
        checkpoints = "100,200,300" if tiny else COMPARE_CHECKPOINTS
        gen = out / "comparison" / tag
        cmp_out = out / "compare-ba" / tag
        return [
            Call(
                "generate",
                path,
                ("generate", "--instance", str(path)) + size + ("--seed", str(seed), "--out", str(gen)),
                gen,
            ),
            Call(
                "compare-ba",
                path,
                ("compare-ba", "--instance", str(path), "--n-seeds", "1", "--checkpoints", checkpoints)
                + size
                + ("--seed", str(seed), "--out", str(cmp_out)),
                cmp_out,
                same_network_as=gen,
            ),
        ]
    raise ValueError(f"unknown workload {name!r}")
