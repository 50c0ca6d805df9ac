"""permitmc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,check-large,small-models}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a traced run. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. ``--smoke`` shrinks
the inputs for a quick check of the harness itself.

Every workload is a closed loop with one client: the next operation starts
when the previous one ends, with no threads and at most one child process at
a time. An untraced run is PROCESSES fresh processes one after another, each
setting up (interpreter start, import, input generation and writing the
inputs out) and then measuring for an equal share of the time; setup_s is
the median set-up, and the other metrics pool the processes' operation
times and block times. Timings of the in-process workloads are scaled to
reference speed with a fixed job run between operations
(harness.SpeedReference); the summary line also prints them as measured. The oracles check the last process's verdicts, and
every other process must reach the same verdicts. A traced run is one
process and reports its per-layer times as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import min_samples, percentile  # noqa: E402

WORKLOADS = ("cli", "check-large", "small-models")
PROCESSES = 5
MIN_OPS = min_samples(0.9)  # operations per run, so ten samples lie beyond the 90th percentile
TIMEOUT_S = 170
DIGESTS = os.path.join(HERE, "digests.json")
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def worker(args, root: str, deadline: float, seconds: float, min_ops: int, gate: bool, offset: float = 0.0) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--root", root, "--min-ops", str(min_ops), "--offset", repr(offset),
    ]
    if gate:
        cmd.append("--gate")
    if args.smoke:
        cmd.append("--smoke")
    # A fixed hash seed keeps set iteration order, and so timings, the same across runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Its own process group, so a timeout also stops any permitmc call it runs.
    proc = subprocess.Popen(
        cmd + ["--t0", repr(time.monotonic())], stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:  # timeout or interrupt: stop the whole group first
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit("benchmark worker timed out") from None
        raise
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


POOLED = ("latency_ms", "scaled_latency_ms", "blocks", "scaled_blocks", "reference_ms")


def timing_metrics(results: list[dict], prefix: str) -> dict:
    """ops_per_s, op_p50_ms, op_p90_ms and setup_s over the processes of a
    run: as measured with prefix "", at reference speed with "scaled_"."""
    latency_ms = [x for r in results for x in r[prefix + "latency_ms"]]
    blocks = [b for r in results for b in r[prefix + "blocks"]]
    setups = [r["setup_s"] * (r["setup_scale"] if prefix else 1.0) for r in results]
    return {
        "ops_per_s": sum(n for n, _ in blocks) / sum(s for _, s in blocks),
        "op_p50_ms": percentile(latency_ms, 0.5),
        "op_p90_ms": percentile(latency_ms, 0.9),
        "setup_s": statistics.median(setups),
    }


def recorded_digest(workload: str, seed: int, smoke: bool) -> str | None:
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(seed))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    # A terminated run stops its worker's process group as an interrupted one does.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "permitmc", "__init__.py")):
        print(f"error: no permitmc sources under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S

    if args.trace:
        results = [worker(args, root, deadline, args.seconds, 1, gate=True)]
    else:
        min_ops = 1 if args.smoke else -(-MIN_OPS // PROCESSES)
        # The oracles check the last process; the others must reach the same verdicts.
        # Each process starts a fifth further into a cli call list, so that
        # together they cover all of it even when one covers only a part.
        results = [
            worker(args, root, deadline, args.seconds / PROCESSES, min_ops, k == PROCESSES - 1, k / PROCESSES)
            for k in range(PROCESSES)
        ]
    result = results[-1]

    digests = {r["digest"] for r in results}
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    attempted = sum(r["attempted"] for r in results)
    if len(digests) > 1:
        errors.append("inputs differ between set-ups of one run")
        failed += 1
    if len({r.get("verdicts") for r in results}) > 1:
        errors.append("verdicts differ between processes of one run")
        failed += 1
    recorded = recorded_digest(args.workload, args.seed, args.smoke)
    if recorded is not None and recorded != result["digest"]:
        errors.append(f"input digest {result['digest']} differs from the recorded {recorded}")
        failed += 1

    if args.trace:
        from layers import PER_LAYER

        metrics, units, samples = result["metrics"], dict(PER_LAYER), result["samples"]
        measured = {}
    else:
        pooled = {key: [x for r in results for x in r[key]] for key in POOLED}
        metrics = timing_metrics(results, "scaled_")
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
        measured = timing_metrics(results, "")
        units, samples = E2E_UNITS, len(pooled["latency_ms"])
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        with open(os.path.join(root, ".bench_out", f"ops-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({**pooled, "processes": PROCESSES}, fh)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"inputs={result['inputs']} digest={result['digest']} "
        f"recorded={'match' if recorded == result['digest'] else 'MISMATCH' if recorded else 'none'} "
        f"samples={samples} error_rate={failed / attempted:.6f}"
    )
    for name in units:
        as_measured = f" (as measured: {measured[name]!r})" if name in measured else ""
        print(f"  {name} = {metrics[name]!r} {units[name]}{as_measured}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
