"""Run one workload on several seeds and report each metric's median and spread.

Run from the repository root:

    python3 perfbench/spread.py --workload metrics-dense --seeds 1 2 3 4 5

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
each end-to-end bound in BENCHMARK.json is compared with. Runs are sequential,
each in its own process, with ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':45s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:45s} {median:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
