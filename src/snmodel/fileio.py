"""Text formats: edge lists, structure lists, plot data, comparison curves, JSON reports.

Every writer emits a version header comment and fully sorted content so that
identical inputs produce byte-identical files. ``write_networks`` makes and
writes a run's networks, in one forked child beside the caller where it can:
both make networks, claimed through a pipe; the caller's go down a one-way
``multiprocessing.connection``, sized to hold the caller's backlog, to the
child, which writes them all and returns every report.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import warnings
from contextlib import suppress
from itertools import repeat
from pathlib import Path
from typing import Callable, Mapping, NoReturn

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

    Comment and blank lines are skipped; a "# nodes N" comment sets the node
    count, which ids past it raise to one past the highest id. Duplicate edges
    warn and are kept once. Self-loops, malformed lines and negative counts or
    ids, or those past MAX_NODES, are errors. One pass splits the lines and the
    ids are then checked as arrays: an error names the first offending line,
    once every duplicate edge before it has warned.
    """
    n_nodes, ids, linenos, fault = 0, [], [], ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "nodes":
                try:
                    count = int(fields[1])
                except ValueError:
                    fault = f"line {lineno}: malformed node count"
                    break
                if not 0 <= count <= MAX_NODES:
                    limit = "must be >= 0" if count < 0 else f"exceeds {MAX_NODES}"
                    fault = f"line {lineno}: node count {limit}"
                    break
                n_nodes = max(n_nodes, count)
        elif line:
            fields = line.split()
            if len(fields) != 2:
                fault = f"line {lineno}: expected two ids, got {len(fields)} fields"
                break
            try:
                ids += int(fields[0]), int(fields[1])
            except ValueError:
                fault = f"line {lineno}: ids must be integers"
                break
            linenos.append(lineno)
    pairs = np.array(ids, dtype=object).reshape(-1, 2)  # Python ints: no id overflows
    bad = (pairs < 0).any(1) | (pairs >= MAX_NODES).any(1) | (pairs[:, 0] == pairs[:, 1])
    if bad.any():
        k = int(np.argmax(bad))
        u, v = ids[2 * k : 2 * k + 2]
        if min(u, v) < 0:
            fault = f"line {linenos[k]}: ids must be >= 0"
        elif max(u, v) >= MAX_NODES:
            fault = f"line {linenos[k]}: ids must be below {MAX_NODES}"
        else:
            fault = f"line {linenos[k]}: self-loop on node {u}"
        pairs = pairs[:k]
    pairs = pairs.astype(np.int64)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    order = np.lexsort((hi, lo))  # stable: an edge's first line leads its copies
    twice = np.zeros(lo.shape[0], dtype=bool)
    twice[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    for k in np.flatnonzero(twice).tolist():
        warnings.warn(f"line {linenos[k]}: duplicate edge {(int(lo[k]), int(hi[k]))}, keeping one")
    if fault:
        raise ValueError(fault)
    n_nodes = max(n_nodes, int(hi.max(initial=-1)) + 1)
    return Network(repeat(None, n_nodes), lo[~twice], hi[~twice])


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


#: The most bytes of a failed child's message that it sends back: they fit the empty pipe.
_MESSAGE_BYTES = 4096
#: The data pipe's size where the platform sets it (Linux's default ceiling): the default 64 KiB
#: holds one celegans seed's 35 KB record, so the next send would wait on a busy child.
_PIPE_BYTES = 1 << 20

Make = Callable[[int], tuple[Path, Network, MetricsReport]]


def write_networks(n_networks: int, make: Make) -> list[MetricsReport]:
    """``write_network`` of ``make(i)`` for each i below *n_networks*; the reports in order.

    Where fork exists, at least two CPUs are usable and no other thread is
    alive, 2 or more networks fork one child. Each process, when free, makes
    the index that a token in a pipe carries. The caller sends each index it
    makes and what ``make`` returned down a connection; the child writes
    every network in index order and sends back every report. An error at
    index k leaves exactly the networks below k written; a child that failed
    raises one OSError with its message, in place of any error the caller
    met. The bytes are the same as in-process. The data pipe holds
    ``_PIPE_BYTES`` where ``fcntl.F_SETPIPE_SZ`` exists, so that the caller's
    sends do not wait while the child makes a network of its own.
    """
    forkable = hasattr(os, "fork") and _WORKERS >= 2 and threading.active_count() == 1
    if n_networks < 2 or not forkable:
        reports = []
        for i in range(n_networks):
            directory, net, report = make(i)
            write_network(directory, net, report)
            reports.append(report)
        return reports
    # Imported here: it pulls in socket and selectors, milliseconds that every
    # snm start would pay at the module's top; fcntl is POSIX-only, as fork is.
    import fcntl
    from multiprocessing.connection import Pipe

    token = os.pipe()
    os.write(token[1], (1).to_bytes(8, "little"))  # index 0 is the caller's
    data_r, data_w = Pipe(duplex=False)
    with suppress(AttributeError, OSError):  # no F_SETPIPE_SZ, or past the host's limit
        fcntl.fcntl(data_w.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    result_r, result_w = Pipe(duplex=False)
    pid = os.fork()
    if pid == 0:
        data_w.close()  # or the child would never see the end of the data
        result_r.close()
        _serve(n_networks, make, token, data_r, result_w)
    data_r.close()
    result_w.close()
    try:
        i = 0
        while i < n_networks:
            data_w.send((i, make(i)))
            i = _claim(token)
    finally:
        data_w.close()  # the end of the data ends the child's claims
        for fd in token:
            os.close(fd)
        try:
            result = result_r.recv()  # before reaping: the reports may exceed the pipe
        except (EOFError, OSError):  # nothing sent, or a result cut short
            result = b""
        result_r.close()
        _, status, _ = os.wait4(pid, 0)
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise OSError(result.decode(errors="replace") or f"the child ended with exit code {code}")
    return result


def _claim(token: tuple[int, int]) -> int:
    """The next unclaimed index: the token's 8-byte count, which goes back one higher."""
    # SIGINT waits while the token is out of its pipe: a Ctrl-C then would lose it.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        i = int.from_bytes(os.read(token[0], 8), "little")
        os.write(token[1], (i + 1).to_bytes(8, "little"))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return i


def _serve(n_networks: int, make: Make, token: tuple[int, int], data, result) -> NoReturn:
    """The forked child: write every network in index order, making one whenever no record waits.

    *data* and *result* are one-way connections. A connection reads exactly
    one record at a time, so ``data.poll()`` sees every record that waits. At
    the end of the data, or in a record cut short, only the contiguous run of
    indexes is written, and its reports go back: a gap is an index the caller
    failed at. An index that fails here ends the claims, and its error goes
    back once every lower index is written. It ignores SIGINT, so an interrupted
    caller still gets what it sent written, and ends by ``os._exit``, never in the caller's stack.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        held: dict[int, tuple[Path, Network, MetricsReport]] = {}
        reports: list[MetricsReport] = []
        end, claiming, failure = n_networks, True, None
        while len(reports) < end:
            if claiming and not data.poll():
                i = _claim(token)
                claiming = i < n_networks
                if claiming:
                    try:
                        held[i] = make(i)
                    except Exception as exc:
                        end, claiming, failure = i, False, exc
            else:
                try:
                    i, made = data.recv()
                except (EOFError, OSError):  # the end, or a record cut short
                    break
                held[i] = made
            while len(reports) in held:
                directory, net, report = held.pop(len(reports))
                write_network(directory, net, report)
                reports.append(report)
        if failure is not None and len(reports) == end:
            raise failure
        result.send(reports)
        status = 0
    except BaseException as exc:
        result.send((str(exc) or type(exc).__name__).encode()[:_MESSAGE_BYTES])
    finally:
        os._exit(status)
