"""Outside-in tracing: spans and counters recorded around calls into snmodel.

Nothing in ``src/`` is changed. ``Tracer.install`` replaces each traced
function at the name its caller looks up (a module global or a class
attribute) with a wrapper that records a span: name, start, end, parent span
and run id. Spans live in flat arrays in memory and are written out once, when
the run ends. ``Tracer.uninstall`` puts every original back. ``NetworkClock``
marks where each produced network starts, the same way. Both replace and
restore snmodel's functions through one ``Patches`` helper.

Per-layer self time is a span's duration minus the time its direct child
spans cover; a function that is not wrapped is charged to its nearest
wrapped caller.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

#: (per-layer metric, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("growth.neighbour_scan.calls", "count", "lower", "wall_s on grow-sparse"),
    ("growth.neighbour_scan.self_s", "s", "lower", "wall_s on grow-sparse; no change on experiment-small"),
    ("growth.neighbour_scan.pairs", "count", "lower", "wall_s on grow-sparse"),
    ("growth.neighbour_scan.hit_ratio", "ratio", "higher", "wall_s on grow-sparse (base: pairs)"),
    ("growth.encode.calls", "count", "lower", "wall_s and network_p90_s on experiment-small"),
    ("growth.encode.self_s", "s", "lower", "wall_s and network_p90_s on experiment-small"),
    ("structures.apply_random_edit.calls", "count", "lower", "wall_s and network_p90_s on experiment-small"),
    ("structures.apply_random_edit.self_s", "s", "lower", "wall_s and network_p90_s on experiment-small"),
    ("growth.attempts", "count", "lower", "wall_s on grow-sparse and experiment-small"),
    ("growth.accepted", "count", "higher", "wall_s on grow-sparse and experiment-small"),
    ("growth.rejected_duplicate", "count", "lower", "wall_s on experiment-small (batch seeds)"),
    ("growth.rejected_isolated", "count", "lower", "wall_s on grow-sparse"),
    ("growth.rejected_edit_failed", "count", "lower", "wall_s on experiment-small"),
    ("growth.accept_ratio", "ratio", "higher", "wall_s on grow-sparse and experiment-small (base: attempts)"),
    ("growth.grow.self_s", "s", "lower", "wall_s on grow-sparse"),
    ("growth.prune_low_degree.self_s", "s", "lower", "wall_s on grow-sparse"),
    ("metrics.compute_metrics.calls", "count", "lower", "wall_s on metrics-dense"),
    ("metrics.compute_metrics.self_s", "s", "lower", "wall_s on metrics-dense"),
    ("metrics.compute_metrics.sweeps_per_call", "count", "lower", "wall_s on metrics-dense (base: compute_metrics.calls)"),
    ("metrics.path_length_histogram.calls", "count", "lower", "wall_s on metrics-dense; no change on grow-sparse"),
    ("metrics.path_length_histogram.self_s", "s", "lower", "wall_s on metrics-dense; no change on grow-sparse"),
    ("metrics.path_length_histogram.sources", "count", "lower", "wall_s on metrics-dense"),
    ("metrics.largest_component.self_s", "s", "lower", "wall_s on metrics-dense, network_p50_s on experiment-small"),
    ("metrics.local_clustering.self_s", "s", "lower", "wall_s on metrics-dense, network_p50_s on experiment-small"),
    ("metrics.triangle_count.self_s", "s", "lower", "wall_s on metrics-dense, network_p50_s on experiment-small"),
    ("metrics.motif_census_3.self_s", "s", "lower", "wall_s on metrics-dense, network_p50_s on experiment-small"),
    ("network.to_csr.calls", "count", "lower", "wall_s on metrics-dense"),
    ("network.to_csr.self_s", "s", "lower", "wall_s on metrics-dense"),
    ("network.subgraph.calls", "count", "lower", "wall_s on metrics-dense"),
    ("network.subgraph.self_s", "s", "lower", "wall_s on metrics-dense"),
    ("network.induced_prefix.calls", "count", "lower", "wall_s on metrics-dense"),
    ("network.induced_prefix.self_s", "s", "lower", "wall_s on metrics-dense"),
    ("ba.grow_ba.calls", "count", "lower", "wall_s on metrics-dense"),
    ("ba.grow_ba.self_s", "s", "lower", "wall_s on metrics-dense"),
    ("fileio.write.calls", "count", "lower", "network_p50_s on experiment-small"),
    ("fileio.write.self_s", "s", "lower", "network_p50_s on experiment-small"),
    ("fileio.write.bytes", "bytes", "lower", "network_p50_s on experiment-small"),
    ("experiments.summarize.self_s", "s", "lower", "network_p50_s on experiment-small"),
    ("experiments.config_from_mapping.self_s", "s", "lower", "setup_s on every workload"),
    ("cli.main.self_s", "s", "lower", "wall_s on every workload"),
    ("trace.overhead_s", "s", "lower", "none: median traced minus median untraced pass time"),
)

_TRACE_COUNTERS = (
    "attempts",
    "accepted",
    "rejected_duplicate",
    "rejected_isolated",
    "rejected_edit_failed",
)


class Patches:
    """Replaces attributes of snmodel's modules and classes and puts the originals back."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


class NetworkClock:
    """Marks the start of every network and the end of every CLI call.

    A network's time runs from its ``run_single`` call (growth, metrics and
    artifacts follow) to the next network, the experiment's ``summarize``
    call, or the end of the CLI call, whichever comes first.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[bool, float]] = []
        self._patches = Patches()

    def install(self) -> None:
        from snmodel import experiments

        for attr, starts_network in (("run_single", True), ("summarize", False)):
            self._patches.replace(experiments, attr, self._marking(getattr(experiments, attr), starts_network))

    def uninstall(self) -> None:
        self._patches.restore()

    def _marking(self, fn, starts_network: bool):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self.marks.append((starts_network, perf_counter()))
            return fn(*args, **kwargs)

        return marked

    def end_call(self) -> None:
        self.marks.append((False, perf_counter()))

    def durations(self, measure=lambda t0, t1: t1 - t0) -> list[float]:
        """Each network's time: ``measure`` of its start and end instants."""
        return [
            measure(t0, t1)
            for (is_start, t0), (_, t1) in zip(self.marks, self.marks[1:])
            if is_start
        ]


class Tracer:
    """Records spans and counters for the calls it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = Patches()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper named *name*.

        ``count(counters, args, result)`` runs after the call, outside the
        span, to add counters at the same boundary.
        """
        fn = getattr(owner, attr)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, counters = self._stack, self.counters
        name_ids, starts, ends, parents, runs = self.name_id, self.start, self.end, self.parent, self.run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if count is not None:
                count(counters, args, result)
            return result

        self._patches.replace(owner, attr, traced)

    def install(self) -> None:
        """Wrap every traced boundary of snmodel."""
        from snmodel import cli, experiments, fileio, growth, metrics
        from snmodel.network import Network

        # GroupIndex does not know the edge threshold its caller applies, so
        # remember it per index to count the neighbours each scan finds.
        index_init = growth.GroupIndex.__init__

        def remember_threshold(index, cfg, *args, **kwargs):
            index_init(index, cfg, *args, **kwargs)
            index.perfbench_max_distance = cfg.max_distance

        self._patches.replace(growth.GroupIndex, "__init__", remember_threshold)

        def count_scan(c, args, result):
            index = args[0]
            c["growth.neighbour_scan.pairs"] += result.shape[0]
            c["growth.neighbour_scan.hits"] += int(
                np.count_nonzero(result <= index.perfbench_max_distance)
            )

        def count_sources(c, args, result):
            c["metrics.path_length_histogram.sources"] += args[0].n_nodes

        def count_bytes(c, args, result):
            c["fileio.write.bytes"] += os.path.getsize(args[0])

        def count_growth(c, args, result):
            trace = result[1]
            for field in _TRACE_COUNTERS:
                c["growth." + field] += getattr(trace, field)

        w = self.wrap
        w(cli, "main", "cli.main")
        w(cli, "compute_metrics", "metrics.compute_metrics")
        for attr in ("config_from_mapping", "summarize", "run_experiment", "run_growth_comparison", "run_single"):
            w(experiments, attr, "experiments." + attr)
        w(experiments, "grow", "growth.grow", count_growth)
        w(experiments, "prune_low_degree", "growth.prune_low_degree")
        w(experiments, "compute_metrics", "metrics.compute_metrics")
        w(experiments, "average_path_length", "metrics.average_path_length")
        w(experiments, "average_clustering", "metrics.average_clustering")
        w(experiments, "grow_ba", "ba.grow_ba")
        w(growth, "apply_random_edit", "structures.apply_random_edit")
        w(growth.GroupIndex, "encode", "growth.encode")
        w(growth.GroupIndex, "distances", "growth.neighbour_scan", count_scan)
        w(metrics, "path_length_histogram", "metrics.path_length_histogram", count_sources)
        for attr in ("largest_component", "local_clustering", "triangle_count", "motif_census_3", "average_path_length"):
            w(metrics, attr, "metrics." + attr)
        for attr in ("to_csr", "subgraph", "induced_prefix"):
            w(Network, attr, "network." + attr)
        for attr in ("write_edge_list", "write_structures", "write_metrics", "write_distribution", "write_json"):
            w(fileio, attr, "fileio.write", count_bytes)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the summed duration of its direct children."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=duration.shape[0]
        )
        return duration - covered

    def layer_metrics(self, n_passes: int) -> dict[str, float]:
        """Per-pass totals of every per-layer metric except ``trace.overhead_s``."""
        a = self.arrays()
        self_s = self.self_times()
        n_names = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        self_total = np.bincount(a["name_id"], weights=self_s, minlength=n_names)
        by_name = {n: (int(calls[i]), float(self_total[i])) for i, n in enumerate(self.names)}

        c = self.counters
        out = {
            "growth.neighbour_scan.hit_ratio": _ratio(
                c["growth.neighbour_scan.hits"], c["growth.neighbour_scan.pairs"]
            ),
            "growth.accept_ratio": _ratio(c["growth.accepted"], c["growth.attempts"]),
            "metrics.compute_metrics.sweeps_per_call": _ratio(
                self._descendants_named("metrics.path_length_histogram", "metrics.compute_metrics"),
                by_name.get("metrics.compute_metrics", (0, 0.0))[0],
            ),
        }
        for metric, _, _, _ in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if metric in out or metric == "trace.overhead_s":
                continue
            if stat in ("calls", "self_s"):
                n_calls, self_total_s = by_name.get(layer, (0, 0.0))
                out[metric] = (n_calls if stat == "calls" else self_total_s) / n_passes
            else:
                out[metric] = c.get(metric, 0.0) / n_passes
        return out

    def _descendants_named(self, child: str, ancestor: str) -> int:
        """Number of *child* spans with an *ancestor* span above them."""
        if child not in self._name_ids or ancestor not in self._name_ids:
            return 0
        a = self.arrays()
        child_id, ancestor_id = self._name_ids[child], self._name_ids[ancestor]
        found = 0
        for sid in np.flatnonzero(a["name_id"] == child_id):
            p = a["parent"][sid]
            while p >= 0 and a["name_id"][p] != ancestor_id:
                p = a["parent"][p]
            found += p >= 0
        return int(found)

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, the span names and *meta* to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)), **self.arrays())


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0
