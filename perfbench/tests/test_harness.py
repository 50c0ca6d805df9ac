"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
from harness import REFERENCE_MS, OpLog, SpeedReference, Tracer, min_samples, percentile, traced  # noqa: E402
from worker import Context, load_permitmc, make_workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


# --- percentiles -----------------------------------------------------------------


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert min_samples(0.9) == 100
    assert min_samples(0.95) == 200
    assert min_samples(0.99) == 1000
    values = [float(i) for i in range(min_samples(0.9))]
    p90 = percentile(values, 0.9)
    assert sum(v > p90 for v in values) == 10


@pytest.mark.parametrize("n", [2, 7, 100, 101, 513])
def test_percentile_matches_inclusive_quantiles(n):
    rng = random.Random(n)
    values = [rng.expovariate(1.0) for _ in range(n)]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    for k, want in enumerate(deciles, start=1):
        assert math.isclose(percentile(values, k / 10), want, rel_tol=1e-12)
    assert percentile(values, 0.0) == min(values)
    assert percentile(values, 1.0) == max(values)


# --- speed reference -------------------------------------------------------------


def reference_with(passes):
    """A SpeedReference whose timed passes are given as (start, seconds)."""
    ref = SpeedReference()
    for at, took in passes:
        ref.at.append(at)
        ref.took.append(took)
    return ref


def test_reference_scale_uses_the_nearest_passes():
    unit = REFERENCE_MS / 1000.0
    ref = reference_with([(0.0, unit), (1.0, unit), (2.0, 2 * unit), (3.0, 2 * unit), (4.0, 2 * unit)])
    assert ref.scale(0.5) == 1.0  # passes at 0, 1, 2: median one unit
    assert ref.scale(3.5) == 0.5  # passes at 2, 3, 4: the machine ran at half speed
    assert ref.scale(-1.0) == 1.0
    assert ref.mean_scale(3) == 0.5
    assert math.isclose(ref.mean_scale(0), 1 / 1.6)
    assert ref.mean_scale(5) == 0.5  # no pass since: the last one


def test_reference_takes_turns_outside_the_timed_operation():
    clock = FakeClock()
    ref = SpeedReference(every=10.0, clock=clock)
    log = OpLog(reference=ref)
    log.call("x", lambda: None)
    assert len(ref.took) == 1 and ref.spent == 0.0
    clock.now = 5.0
    log.call("x", lambda: None)
    assert len(ref.took) == 1  # not due yet
    clock.now = 10.0
    log.call("x", lambda: None)
    assert len(ref.took) == 2
    assert len(log.starts) == len(log.latencies) == 3


def test_reference_pass_is_deterministic():
    assert SpeedReference()._pass() == SpeedReference()._pass()


# --- span self time --------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_with_nested_children():
    clock = FakeClock()
    t = Tracer(clock)
    a = t.begin("A")          # 0
    clock.now = 1
    b = t.begin("B")          # 1
    clock.now = 4
    t.finish(b)               # B: 1..4
    clock.now = 5
    c = t.begin("C")
    clock.now = 9
    t.finish(c)               # C: 5..9
    clock.now = 10
    t.finish(a)               # A: 0..10
    s = t.summarize()
    assert s["A"] == {"count": 1, "self_s": 3.0, "covered_s": 10.0}
    assert s["B"]["self_s"] == 3.0 and s["C"]["self_s"] == 4.0
    assert sum(v["self_s"] for v in s.values()) == 10.0
    assert list(t.parent) == [-1, 0, 0]


def test_self_time_with_recursive_children():
    clock = FakeClock()
    t = Tracer(clock)

    def step(n):
        clock.now += 1  # one unit of own work before recursing
        if n:
            fn(n - 1)
        clock.now += 2  # two units after

    fn = traced(t, step, "rec")
    outer = t.begin("op")
    fn(3)  # four nested calls, 3 units of self time each
    t.finish(outer)
    s = t.summarize()
    assert s["rec"]["count"] == 4
    assert s["rec"]["self_s"] == 12.0
    # Covered time counts the outermost call only, not each recursion level.
    assert s["rec"]["covered_s"] == 12.0
    assert s["op"]["self_s"] == 0.0
    assert list(t.nested) == [0, 0, 1, 1, 1]


def test_span_closes_when_the_call_raises():
    t = Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        traced(t, boom, "boom")()
    assert t.summarize()["boom"]["count"] == 1
    t.begin("after")  # the stack is balanced again
    assert t.parent[-1] == -1


# --- per-layer metrics ---------------------------------------------------------

# Span names recorded outside layers.ENTRY_POINTS: the checker's per-node
# spans, the harness's own decode and operation spans, and the shim's main.
OTHER_SPANS = ("checker.node.WA", "checker.node.WE", "checker.node.SE", "checker.node.SA",
               "checker.node.bool", "model.json", "harness.op", "cli.main")


def one_ms_per_span():
    from layers import ENTRY_POINTS

    names = {span for _, _, span in ENTRY_POINTS} | set(OTHER_SPANS)
    return names, {n: {"count": 1, "self_s": 0.001, "covered_s": 0.001} for n in names}


def test_every_span_self_time_lands_in_one_metric():
    from layers import layer_metrics

    names, summary = one_ms_per_span()
    metrics = layer_metrics(summary, {})
    busy = sum(v for k, v in metrics.items()
               if "_ms" in k and k != "checker.check_ms" and not k.startswith("generate."))
    own = [n for n in names if not n.startswith("generate.")]
    assert math.isclose(busy, float(len(own)))
    parts = [v for k, v in metrics.items() if k.startswith("checker.modal_self_ms.") or k == "checker.bool_self_ms"]
    assert math.isclose(metrics["checker.check_ms"], sum(parts))


def test_layer_metrics_are_per_round_except_ratios():
    from layers import RATIOS, layer_metrics

    _, summary = one_ms_per_span()
    counters = {"lookups": 8, "hits": 6, "models": 2, "modal_steps": 10, "candidates": 40, "found": 4,
                "entries": 100, "nodes": 30, "expanded_states": 12}
    once = layer_metrics(summary, counters)
    per_round = layer_metrics(summary, counters, rounds=4)
    assert set(once) == set(per_round)
    for k in once:
        want = once[k] if k in RATIOS else once[k] / 4
        assert math.isclose(per_round[k], want), k
    assert per_round["checker.memo_hit_ratio"] == 0.75
    assert per_round["model.entries"] == 25


# --- inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["cli", "check-large", "small-models"])
def test_digest_is_deterministic_per_seed(name, tmp_path):
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        ctx = Context(ROOT, seed, smoke=True)
        ctx.out_dir = str(tmp_path / sub)
        digests.append(make_workload(name, ctx).setup().hexdigest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("name", ["check-large", "small-models"])
def test_verdict_digest_follows_the_verdicts(name, tmp_path):
    pm = load_permitmc(os.path.join(ROOT, "src"))
    digests = []
    for sub in ("a", "b"):
        ctx = Context(ROOT, 5, smoke=True)
        ctx.out_dir = str(tmp_path / sub)
        wl = make_workload(name, ctx)
        wl.setup()
        wl.run_block(OpLog(), pm)
        digests.append(wl.verdicts())
    assert digests[0] == digests[1]
    key = min(wl.expected)
    wl.expected[key] = ["changed"]
    assert wl.verdicts() != digests[0]


def test_oracle_agrees_with_the_naive_checker():
    from permitmc.checker import check_state_naive
    from permitmc.generate import GenParams, random_formula, random_model
    from permitmc.model import model_to_dict

    for seed in range(30):
        m = random_model(GenParams(seed=seed, num_agents=2, num_states=4, max_actions=3, num_props=2,
                                   permitted_density=0.6, branching=2))
        raw = oracle.RawModel(model_to_dict(m))
        f = random_formula(seed, 4, m.agents, sorted(m.valuation))
        assert oracle.truth_set(raw, f) == {s for s in m.states if check_state_naive(m, s, f)}


def test_tracing_restores_every_binding():
    import permitmc
    import permitmc.cli
    from layers import LayerTracing
    from permitmc.checker import ModelChecker

    before = (permitmc.parse, permitmc.cli.parse, ModelChecker.truth_set)
    tracing = LayerTracing(Tracer())
    tracing.install()
    assert permitmc.cli.parse is not before[1]
    tracing.remove()
    assert (permitmc.parse, permitmc.cli.parse, ModelChecker.truth_set) == before


# --- whole runs ------------------------------------------------------------------


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(name, trace):
    r = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--smoke")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = run_bench(str(tmp_path), "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert r.returncode != 0
    assert r.stdout.strip() == ""
