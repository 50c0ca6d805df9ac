"""One benchmark process: set up a workload's inputs, then measure it.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1
                     --root DIR --t0 T --min-ops N [--offset F] [--gate] [--smoke]

``--t0`` is the CLOCK_MONOTONIC reading of the parent just before it started
this process, so the reported set-up time covers interpreter start-up,
``import permitmc``, generating the inputs and writing them out. Prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
import types

from harness import OpLog, SpeedReference, Tracer, merge_summaries, peak_rss_mb

START_PROBES = 5


class Context:
    def __init__(self, root: str, seed: int, smoke: bool, offset: float = 0.0):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(root, ".bench_out")
        self.seed = seed
        self.smoke = smoke
        # Where in its input list a workload whose blocks are parts of that
        # list (cli) starts, as a share of the list.
        self.offset = offset


def load_permitmc(src: str) -> types.SimpleNamespace:
    """Import the package from the checkout's src/ and nowhere else."""
    sys.path.insert(0, src)
    import permitmc

    origin = os.path.dirname(os.path.abspath(permitmc.__file__))
    if origin != os.path.join(src, "permitmc"):
        raise SystemExit(f"permitmc imported from {origin}, not from {src}")
    names = ("model", "formula", "checker", "algebra", "deduction", "atl", "generate", "fixtures", "cli")
    return types.SimpleNamespace(**{n: importlib.import_module(f"permitmc.{n}") for n in names})


def make_workload(name: str, ctx: Context):
    if name == "cli":
        from workload_cli import CliCalls

        return CliCalls(ctx)
    if name == "check-large":
        from workload_check_large import CheckLarge

        return CheckLarge(ctx)
    if name == "small-models":
        from workload_small_models import SmallModels

        return SmallModels(ctx)
    raise SystemExit(f"unknown workload {name!r}")


def measure(wl, pm, seconds: float, min_ops: int, gate: bool) -> dict:
    """Whole blocks of work, at least ``min_ops`` operations, ending at the
    block end nearest to ``seconds``. Returns the per-operation times and
    per-block (operations, seconds), both as measured and scaled to reference
    speed, the factor that scales set-up time, and the verdict digest; the
    caller pools them over processes. The speed reference's turns are not
    part of any operation or block time. A cli operation runs in a child
    process that the reference in this one does not follow (scaling added
    noise there), so cli times are not scaled. With ``gate`` the verdicts
    are also checked against the workload's oracles; the caller gates one
    process and compares the others' verdict digests with it."""
    ref = SpeedReference() if wl.name != "cli" else None
    log = OpLog(reference=ref)
    blocks, scaled_blocks = [], []  # (operations completed, seconds) per block
    t0 = start = time.perf_counter()
    while True:
        done = log.attempted - log.failed
        spent, passes = (ref.spent, len(ref.took)) if ref else (0.0, 0)
        wl.run_block(log, pm)
        now = time.perf_counter()
        ops, elapsed = log.attempted - log.failed - done, now - start - (ref.spent - spent if ref else 0.0)
        blocks.append((ops, elapsed))
        scaled_blocks.append((ops, elapsed * (ref.mean_scale(passes) if ref else 1.0)))
        start = now
        half_block = (now - t0) / len(blocks) / 2
        if now - t0 + half_block >= seconds and len(log.latencies) >= min_ops:
            break
    if gate:
        wl.gate(log, pm, {})
    return {
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "latency_ms": [x * 1000.0 for x in log.latencies],
        "scaled_latency_ms": [
            x * 1000.0 * (ref.scale(t) if ref else 1.0) for x, t in zip(log.latencies, log.starts)
        ],
        "blocks": blocks,
        "scaled_blocks": scaled_blocks,
        # Set-up ran just before the first operation.
        "setup_scale": ref.scale(log.starts[0]) if ref else 1.0,
        "reference_ms": [x * 1000.0 for x in ref.took] if ref else [],
        "verdicts": wl.verdicts(),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli"),
    }


def start_probes(ctx: Context, with_import: bool) -> dict:
    """Medians of a bare interpreter start and of ``import permitmc.cli``."""
    env = dict(os.environ, PYTHONPATH=ctx.src)
    bare = []
    for _ in range(START_PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - t)
    out = {"cli.interp_start_ms": 1000.0 * statistics.median(bare)}
    if with_import:
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shim.py")
        imports = []
        for _ in range(START_PROBES):
            r = subprocess.run(
                [sys.executable, shim, "--import-only"], env=env, check=True, capture_output=True, text=True
            )
            imports.append(json.loads(r.stdout)["import_s"])
        out["cli.import_ms"] = 1000.0 * statistics.median(imports)
    return out


def measure_traced(wl, pm, ctx: Context, seconds: float, setup_summary: dict) -> dict:
    """Untraced and traced rounds alternate until the time is up; the
    untraced ones give the reference rate, task shares and the overhead.
    In cli each call runs both ways, and the run ends on a whole pass over
    the call list, so per-call averages weigh every call alike."""
    from layers import PER_LAYER, LayerTracing, layer_metrics

    tracer = Tracer()
    tracing = LayerTracing(tracer)
    plain, traced_log = OpLog(), OpLog(tracer)
    walls = {False: 0.0, True: 0.0}
    summary: dict = {}
    t_start = time.perf_counter()
    traced = False
    i = first_block = traced_rounds = 0
    while True:
        t0 = time.perf_counter()
        if wl.name == "cli":
            # Each call runs plain and through the shim, in alternating order.
            for tr in (traced, not traced):
                t = time.perf_counter()
                wl.run_call(traced_log if tr else plain, i % len(wl.calls), traced=tr)
                walls[tr] += time.perf_counter() - t
            i += 1
        elif traced:
            tracing.install()
            wl.run_block(traced_log, pm)
            tracing.remove()
            walls[True] += time.perf_counter() - t0
            first_block = first_block or len(tracer)
            traced_rounds += 1
        else:
            wl.run_block(plain, pm)
            walls[False] += time.perf_counter() - t0
        traced = not traced
        whole = wl.name != "cli" or i % len(wl.calls) == 0
        if time.perf_counter() - t_start >= seconds and walls[True] > 0 and walls[False] > 0 and whole:
            break

    counters: dict = {}
    metrics: dict = {name: 0.0 for name, _ in PER_LAYER}
    if wl.name == "cli":
        imports = []
        for t in wl.traces:
            merge_summaries(summary, t["summary"])
            imports.append(t["import_s"])
            for k, v in t["counters"].items():
                tracer.counters[k] = tracer.counters.get(k, 0) + v
        metrics.update(layer_metrics(summary, tracer.counters, max(len(wl.traces), 1)))
        metrics.update(start_probes(ctx, with_import=False))
        metrics["cli.import_ms"] = 1000.0 * statistics.median(imports) if imports else 0.0
    else:
        summary = tracer.summarize()
        metrics.update(layer_metrics(summary, tracer.counters, traced_rounds))
        metrics.update(start_probes(ctx, with_import=True))
    for name, value in layer_metrics(setup_summary, {}).items():
        if name.startswith("generate."):
            metrics[name] += value
    gate_log = OpLog()
    wl.gate(gate_log, pm, counters)
    if wl.name == "check-large":
        metrics["checker.doubling_ratio"] = wl.doubling(pm, counters, gate_log)
    metrics.update(counters)

    untraced_rate = plain.attempted / walls[False]
    traced_rate = traced_log.attempted / walls[True]
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    if wl.name == "small-models":
        for kind in ("search", "soundness", "translation", "derivation"):
            metrics[f"small.{kind}_share_pct"] = 100.0 * plain.by_kind.get(kind, 0.0) / walls[False]

    # Every span of the first traced block (one pass over all inputs) of an
    # in-process run, and for every run the per-name summary of all blocks.
    if wl.name != "cli":
        tracer.write(os.path.join(ctx.out_dir, f"trace-{wl.name}.jsonl"), first_block)
    with open(os.path.join(ctx.out_dir, f"trace-{wl.name}.summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return {
        "attempted": plain.attempted + traced_log.attempted,
        "failed": plain.failed + traced_log.failed + gate_log.failed,
        "errors": plain.errors + traced_log.errors + gate_log.errors,
        "metrics": metrics,
        "samples": traced_log.attempted,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--offset", type=float, default=0.0)
    ap.add_argument("--gate", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    ctx = Context(args.root, args.seed, args.smoke, args.offset)
    pm = load_permitmc(ctx.src)
    wl = make_workload(args.workload, ctx)
    if args.trace:
        # Set-up gets its own tracer: only its generator time is reported.
        from layers import LayerTracing

        setup_tracer = Tracer()
        setup_tracing = LayerTracing(setup_tracer)
        setup_tracing.install()
        digest = wl.setup()
        setup_tracing.remove()
    else:
        digest = wl.setup()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "digest": digest.hexdigest(), "inputs": digest.items}
    if args.trace:
        result.update(measure_traced(wl, pm, ctx, args.seconds, setup_tracer.summarize()))
    else:
        result.update(measure(wl, pm, args.seconds, args.min_ops, args.gate))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
