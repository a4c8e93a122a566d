"""Record reference.json: artifact digests and metric values of reference seeds.

Run from the repository root:

    python3 perfbench/record_reference.py

Seed 1 is every shipped instance's default and seed 7 is held out. Each
workload runs once per seed at full size; every network must first pass the
oracle check, so only checked outputs are recorded. Re-record only for a
change that is meant to alter the outputs, and say so in its description.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import Checker, network_record, read_curves
from run import OUT, REFERENCE, invoke, use_source_tree
from workloads import WORKLOADS, calls

SEEDS = (1, 7)


def main() -> int:
    if not use_source_tree():
        return 2
    networks = {}
    for seed in SEEDS:
        for name in WORKLOADS:
            root = OUT / "reference" / name
            shutil.rmtree(root, ignore_errors=True)
            pass_calls = calls(name, seed, root)
            errors = [invoke(call.argv) for call in pass_calls]
            outcome = Checker({}, seed).check_pass(pass_calls, errors, root)
            if outcome.failed:
                print("\n".join(outcome.problems), file=sys.stderr)
                return 1
            for call in pass_calls:
                key = call.out.relative_to(root).as_posix()
                if call.kind == "experiment":
                    for s in call.seeds:
                        networks[f"{key}/seed_{s:05d}"] = network_record(call.out / f"seed_{s:05d}")
                elif call.kind == "generate":
                    networks[key] = network_record(call.out)
                else:
                    networks[key] = {
                        metric: {"sn": [r[1] for r in rows], "ba": [r[2] for r in rows]}
                        for metric, rows in read_curves(call.out).items()
                    }
            shutil.rmtree(root)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    payload = {"seeds": list(SEEDS), "networks": dict(sorted(networks.items()))}
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(networks)} records to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
