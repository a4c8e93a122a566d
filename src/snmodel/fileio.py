"""Text formats: edge lists, structure lists, plot data, comparison curves, JSON reports.

Every writer emits a version header comment and fully sorted content so that
identical inputs produce byte-identical files. ``network_writer`` hands a
run's networks to one forked child that writes them while the caller goes on.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Mapping, NoReturn

import numpy as np

from .metrics import _WORKERS, MetricsReport
from .network import Network

EDGE_HEADER = "# snm edge-list v1"
STRUCTURE_HEADER = "# snm structures v1"
DISTRIBUTION_HEADER = "# snm distribution v1"
COMPARISON_HEADER = "# snm comparison v1"
METRICS_FORMAT = "snm metrics v1"
SUMMARY_FORMAT = "snm summary v1"
#: Node counts fit the int64 edge arrays; so does one past the highest id.
MAX_NODES = np.iinfo(np.int64).max


def render_edge_list(net: Network) -> str:
    """Edge list text: one "u<TAB>v" line per edge, ids 0-based, sorted."""
    order = np.argsort(net.edge_u * net.n_nodes + net.edge_v)  # as in Network, n < 3.04e9
    ids = np.column_stack((net.edge_u[order], net.edge_v[order])).ravel().tolist()
    return f"{EDGE_HEADER}\n# nodes {net.n_nodes}\n" + "%d\t%d\n" * order.shape[0] % tuple(ids)


def write_edge_list(path: str | Path, net: Network) -> None:
    Path(path).write_text(render_edge_list(net), encoding="utf-8")


def parse_edge_list(text: str) -> Network:
    """Build a structureless network from edge-list text.

    Comment and blank lines are skipped; a "# nodes N" comment pins the node
    count (otherwise it is one past the highest id). Duplicate edges produce
    a warning and are kept once; self-loops, malformed lines and counts or
    ids past MAX_NODES are errors that name the offending line number.
    """
    n_nodes = 0
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "nodes":
                try:
                    n_nodes = max(n_nodes, int(fields[1]))
                except ValueError:
                    raise ValueError(f"line {lineno}: malformed node count") from None
                if n_nodes > MAX_NODES:
                    raise ValueError(f"line {lineno}: node count exceeds {MAX_NODES}")
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two ids, got {len(fields)} fields")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: ids must be integers") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: ids must be >= 0")
        if max(u, v) >= MAX_NODES:
            raise ValueError(f"line {lineno}: ids must be below {MAX_NODES}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop on node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.warn(f"line {lineno}: duplicate edge {key}, keeping one")
            continue
        seen.add(key)
        pairs.append(key)
        n_nodes = max(n_nodes, u + 1, v + 1)
    return Network.from_edges(n_nodes, pairs)


def read_edge_list(path: str | Path) -> Network:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def render_structures(net: Network) -> str:
    """Structure list text: one "id<TAB>structure" line per structured node."""
    lines = [STRUCTURE_HEADER]
    for i, word in enumerate(net.structures):
        if word is not None:
            lines.append(f"{i}\t{word}")
    return "\n".join(lines) + "\n"


def write_structures(path: str | Path, net: Network) -> None:
    Path(path).write_text(render_structures(net), encoding="utf-8")


def render_distribution(values: Mapping[int, float], x_label: str, y_label: str) -> str:
    """Two-column plot data, keys sorted ascending."""
    lines = [DISTRIBUTION_HEADER, f"# {x_label}\t{y_label}"]
    for x in sorted(values):
        lines.append(f"{x}\t{values[x]:.10g}")
    return "\n".join(lines) + "\n"


def write_distribution(
    path: str | Path, values: Mapping[int, float], x_label: str, y_label: str
) -> None:
    Path(path).write_text(render_distribution(values, x_label, y_label), encoding="utf-8")


def write_comparison(path: str | Path, curve: Mapping[str, Mapping[int, float]]) -> None:
    """One metric's "sn" and "ba" curves as "n_nodes sn ba" rows, node counts ascending."""
    lines = [COMPARISON_HEADER, "# n_nodes\tsn\tba"]
    for c in sorted(curve["sn"]):
        lines.append(f"{c}\t{curve['sn'][c]:.10g}\t{curve['ba'][c]:.10g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _stringify_keys(value: object) -> object:
    if isinstance(value, dict):
        return {str(k): _stringify_keys(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_keys(v) for v in value]
    return value


def report_to_dict(report: object, format_tag: str) -> dict:
    """A dataclass report as a JSON object tagged with its format."""
    out = {"format": format_tag}
    out.update(_stringify_keys(vars(report)))
    return out


def render_json(payload: Mapping) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_metrics(path: str | Path, report: MetricsReport) -> None:
    Path(path).write_text(render_json(report_to_dict(report, METRICS_FORMAT)), encoding="utf-8")


def write_json(path: str | Path, payload: Mapping) -> None:
    Path(path).write_text(render_json(payload), encoding="utf-8")


def write_network(directory: str | Path, net: Network, report: MetricsReport) -> None:
    """Write one network's artifacts into *directory*, creating it.

    The edge list, the structure list (when any node has a structure), the
    metrics report, and the degree and path-length distributions.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(out / "edges.tsv", net)
    if any(s is not None for s in net.structures):
        write_structures(out / "structures.tsv", net)
    write_metrics(out / "metrics.json", report)
    write_distribution(
        out / "degree_distribution.tsv", report.degree_distribution, "degree", "fraction"
    )
    write_distribution(
        out / "path_length_distribution.tsv",
        report.path_length_distribution,
        "path_length",
        "fraction",
    )


#: Each record on the writer's pipe is its pickle's byte length, then the pickle.
_LENGTH = struct.Struct("<Q")
#: The most bytes of a failed writer's message that it sends back, one atomic pipe write.
_MESSAGE_BYTES = 4096


@contextmanager
def network_writer(
    n_networks: int,
) -> Iterator[Callable[[Path, Network, MetricsReport], None]]:
    """``write_network`` for *n_networks* networks, run beside the caller when it can be.

    Where fork exists, at least two CPUs are usable, *n_networks* is at least
    2 and no other thread is alive, one child is forked: each call pickles the
    directory, the network's structures and edges (not its cached views) and
    the report down a pipe, and the child rebuilds the network and calls
    ``write_network``. Leaving the block closes the pipe and reaps the child,
    which writes everything sent before it ends; a child that failed raises
    one OSError with its message, in place of any error the caller met.
    Otherwise each call is ``write_network`` in-process. The bytes are the
    same either way.
    """
    if not (
        hasattr(os, "fork")
        and _WORKERS >= 2
        and n_networks >= 2
        and threading.active_count() == 1
    ):
        yield write_network
        return
    data_r, data_w = os.pipe()
    error_r, error_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        _serve(data_r, error_w, (data_w, error_r))
    os.close(data_r)
    os.close(error_w)

    def write(directory: Path, net: Network, report: MetricsReport) -> None:
        record = pickle.dumps(
            (directory, net.structures, net.edge_u, net.edge_v, report), pickle.HIGHEST_PROTOCOL
        )
        view = memoryview(_LENGTH.pack(len(record)) + record)
        while view:
            view = view[os.write(data_w, view) :]

    try:
        yield write
    finally:
        os.close(data_w)
        with open(error_r, "rb") as errors:
            # The child's one message fits the pipe, so it can exit before this reads it.
            _, status, _ = os.wait4(pid, 0)
            message = errors.read().decode(errors="replace")
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise OSError(message or f"the artifact writer ended with exit code {code}")


def _serve(data_r: int, error_w: int, parent_ends: tuple[int, int]) -> NoReturn:
    """The forked writer: write each record until the pipe ends, then exit.

    It closes its copies of the caller's pipe ends, or it would never see the
    end of the data. It ignores SIGINT, so an interrupted caller still gets
    what it sent written, and it ends by ``os._exit``: never back into the
    caller's stack. A record cut short means the caller stopped while sending
    it; it is dropped.
    """
    status = 0
    try:
        for fd in parent_ends:
            os.close(fd)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(data_r, "rb") as records:
            while len(header := records.read(_LENGTH.size)) == _LENGTH.size:
                (size,) = _LENGTH.unpack(header)
                record = records.read(size)
                if len(record) < size:
                    break
                directory, structures, edge_u, edge_v, report = pickle.loads(record)
                write_network(directory, Network(structures, edge_u, edge_v), report)
    except BaseException as exc:
        status = 1
        os.write(error_w, (str(exc) or type(exc).__name__).encode()[:_MESSAGE_BYTES])
    finally:
        os._exit(status)
