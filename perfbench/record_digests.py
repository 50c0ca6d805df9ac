"""Rewrite digests.json: the input digest of every workload for seeds 0-31,
at full and at smoke size.

    python3 perfbench/record_digests.py

Run it from the root of a checkout only when the inputs are meant to change;
a run whose inputs differ from the recorded digest counts as failed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DIGESTS, WORKLOADS  # noqa: E402
from worker import Context, load_permitmc, make_workload  # noqa: E402

SEEDS = range(32)


def main() -> int:
    root = os.getcwd()
    load_permitmc(os.path.join(root, "src"))
    table: dict[str, dict[str, dict[str, str]]] = {"full": {}, "smoke": {}}
    bench_out = os.path.join(root, ".bench_out")
    os.makedirs(bench_out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench_out) as tmp:
        for size in ("full", "smoke"):
            for name in WORKLOADS:
                per_seed = table[size].setdefault(name, {})
                for seed in SEEDS:
                    ctx = Context(root, seed, smoke=size == "smoke")
                    ctx.out_dir = tmp
                    per_seed[str(seed)] = make_workload(name, ctx).setup().hexdigest()
                print(f"{size} {name}: {len(SEEDS)} seeds", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
