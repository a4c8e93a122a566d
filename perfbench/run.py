"""snmodel benchmark: run one workload through `snm` in-process, check it, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grow-sparse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run makes a fixed number of full passes of the workload (every CLI call,
each via ``snmodel.cli.main``): ``--seconds`` over the workload's typical
pass time, at least one, so the count does not depend on the code's speed.
Set-up is timed in fresh interpreters started between the passes. Then the
artifacts of every pass are checked. Every time is scaled to a reference
host speed, measured by a fixed kernel sampled through the run (see
``hostspeed.py``); timings are medians of scaled times. ``--trace 1``
alternates untraced and traced passes (at least two of each) and reports the
per-layer split instead of the end-to-end metrics. The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; a
readable table goes to stderr. ``--workload all`` runs every workload in its
own process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, HostSpeed
from workloads import WORKLOADS, Call, calls

OUT = Path(".perfbench_out")
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_STARTS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (end-to-end metric, unit, better, bound as a share of the parent's median)
#: Times are scaled to a reference host speed (hostspeed.py), which took their
#: spread over ten seeds from 0.08-0.33 to 0.02-0.06 on a shared 2-core host.
#: setup_s is scaled from samples around each start only, and spread up to
#: 0.23; it keeps the largest bound, and so do the other times.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("network_p50_s", "s", "lower", 0.25),
    ("network_p90_s", "s", "lower", 0.25),
)

# Child process for set-up time: import the package and parse the
# workload's instance (and match) files, nothing more.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import snmodel.cli; "
    "from snmodel.experiments import load_instance_file; "
    "[load_instance_file(p) for p in sys.argv[1:]]"
)


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": os.environ.get("OMP_NUM_THREADS"),
    }


def setup_command(instances: tuple[Path, ...]) -> list[str]:
    return [sys.executable, "-c", _SETUP_CODE, *map(str, instances)]


def time_setup(cmd: list[str], starts: int, host: HostSpeed) -> list[float]:
    """Scaled wall time of *starts* fresh interpreters that run *cmd*.

    The host is sampled between the starts, not during them: a sample would
    run beside the child, not in place of it.
    """
    times = []
    host.sample()
    for _ in range(starts):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        t1 = perf_counter()
        host.sample()
        times.append(host.scaled(t0, t1))
    return times


def invoke(argv: tuple[str, ...]) -> str | None:
    """Run one CLI call in-process; return None on success or why it failed."""
    from snmodel import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing call is a failed operation, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return f"raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def run_pass(pass_calls: list[Call], clock) -> list[str | None]:
    errors = []
    for call in pass_calls:
        errors.append(invoke(call.argv))
        clock.end_call()
    return errors


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def pass_plan(name: str, seconds: float, trace: bool) -> list[bool]:
    """Whether each pass of a run is traced; untraced and traced passes alternate."""
    n = WORKLOADS[name].passes(seconds)
    return [False, True] * max(2, -(-n // 2)) if trace else [False] * n


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: timed passes with set-up timed between them, then the correctness gate."""
    from checks import Checker
    from tracer import PER_LAYER, NetworkClock, Tracer

    root = OUT / f"{name}-{os.getpid()}"
    plan = pass_plan(name, seconds, trace)
    setup_cmd = setup_command(WORKLOADS[name].instances)
    setup_times: list[float] = []
    if not trace:
        # One untimed start writes the bytecode cache, which an installed
        # package already has.
        subprocess.run(setup_cmd, check=True)

    host = HostSpeed()
    clock = NetworkClock()
    clock.install()
    tracer = Tracer() if trace else None
    raw_walls: list[float] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    pass_runs: list[tuple[list[Call], list[str | None], Path]] = []
    try:
        for i, traced in enumerate(plan):
            if not trace:
                # Spread the set-up starts over the run, so that one busy
                # moment of the host does not set the median.
                starts = SETUP_STARTS * (i + 1) // len(plan) - SETUP_STARTS * i // len(plan)
                setup_times += time_setup(setup_cmd, starts, host)
            pass_dir = root / f"pass{i}"
            pass_calls = calls(name, seed, pass_dir, tiny)
            if traced:
                tracer.run_id = len(traced_walls)
                tracer.install()
            host.start()
            try:
                t0 = perf_counter()
                errors = run_pass(pass_calls, clock)
                t1 = perf_counter()
            finally:
                host.stop()
                if traced:
                    tracer.uninstall()
            (traced_walls if traced else plain_walls).append(host.scaled(t0, t1))
            raw_walls.append(t1 - t0)
            pass_runs.append((pass_calls, errors, pass_dir))
    finally:
        clock.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {} if tiny else json.loads(REFERENCE.read_text(encoding="utf-8"))["networks"]
    checker = Checker(reference, seed)
    (first_calls, first_errors, first_dir), *repeats = pass_runs
    first = checker.check_pass(first_calls, first_errors, first_dir)
    outcomes = [first] + [checker.check_repeat(first, *run) for run in repeats]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]

    if trace:
        n_traced = len(traced_walls)
        metrics = tracer.layer_metrics(n_traced)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        units = {m: u for m, u, _, _ in PER_LAYER}
        tracer.write(
            OUT / f"trace-{name}.npz",
            {"workload": name, "seed": seed, "passes": n_traced, "machine": machine_info()},
        )
    else:
        net_times = clock.durations(host.scaled)
        metrics = {
            "wall_s": statistics.median(plain_walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "network_p50_s": percentile(net_times, 50),
            "network_p90_s": percentile(net_times, 90),
        }
        units = {m: u for m, u, _, _ in END_TO_END}
    shutil.rmtree(root, ignore_errors=True)

    report = {
        "workload": name,
        "seed": seed,
        "pass_walls": plain_walls,
        "traced_pass_walls": traced_walls,
        "raw_pass_walls": raw_walls,
        "kernel_samples": len(host.durations),
        "kernel_median_s": host.median_kernel(),
        "network_samples": len(clock.durations()),
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": problems,
        "machine": machine_info(),
        "argv": [" ".join(("snm",) + c.argv) for c in calls(name, seed, Path("OUT"), tiny)],
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return {"result": result, "report": report}


def print_table(result: dict, report: dict, out=sys.stderr) -> None:
    def seconds(values):
        return "[" + " ".join(f"{v:.3f}" for v in values) + "] s"

    traced = report["traced_pass_walls"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"scaled pass walls {seconds(report['pass_walls'])}  "
          + (f"scaled traced pass walls {seconds(traced)}  " if traced else "")
          + f"raw pass walls {seconds(report['raw_pass_walls'])}  "
          f"network samples {report['network_samples']}", file=out)
    print(f"host kernel: {report['kernel_samples']} samples, median {report['kernel_median_s']:.5f} s "
          f"(reference {REFERENCE_S} s)", file=out)
    print("machine " + json.dumps(report["machine"], sort_keys=True), file=out)
    for line in report["argv"]:
        print("  " + line, file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}", file=out)
    print(f"  {'failed_ratio':45s} {report['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)", file=out)
    for problem in report["problems"][:20]:
        print("  FAILED " + problem, file=out)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; prints one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def use_source_tree() -> bool:
    """Import snmodel from ./src with one BLAS/OpenMP thread; False if it is not there.

    One thread (at most nproc) keeps run-to-run spread low; it must be set
    before numpy is first imported.
    """
    if not Path("src/snmodel/__init__.py").is_file():
        print("error: run from the repository root; src/snmodel is missing", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path("src").resolve()))
    import snmodel

    if Path(snmodel.__file__).resolve().parent != Path("src/snmodel").resolve():
        print(f"error: imported snmodel from {snmodel.__file__}, not ./src", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (a few hundred nodes)")
    args = parser.parse_args(argv)
    if not use_source_tree():
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print_table(out["result"], out["report"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
