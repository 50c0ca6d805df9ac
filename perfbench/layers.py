"""Span instrumentation of permitmc's layers and the per-layer metrics built
from the spans.

Each layer is one module of the package. Its public entry points are rebound,
at every module binding that refers to them, to wrappers that record one span
per call; ``ModelChecker.truth_set`` is wrapped on the class so that its
recursive calls are spans too. Busy time is self time: each span's self
time is counted in exactly one metric (``checker.check_ms`` is the total of
the checker's modal and boolean parts), so within timed operations the busy
times of the layers and ``harness.self_ms`` add up to the operations' wall
time. ``generate.*`` are the exception: they report time including the model
building they call.
"""

from __future__ import annotations

import sys
import weakref
from typing import Any

from harness import Patches, Tracer, covered_ms, self_ms, traced

MODALITIES = ("WA", "WE", "SE", "SA")

# (module, public name, span name)
ENTRY_POINTS = (
    ("permitmc.model", "model_from_dict", "model.from_dict"),
    ("permitmc.model", "validate_model", "model.validate"),
    ("permitmc.model", "make_model", "model.make"),
    ("permitmc.formula", "parse", "formula.parse"),
    ("permitmc.checker", "truth_set_wa", "checker.modal.WA"),
    ("permitmc.checker", "truth_set_we", "checker.modal.WE"),
    ("permitmc.checker", "truth_set_se", "checker.modal.SE"),
    ("permitmc.checker", "truth_set_sa", "checker.modal.SA"),
    ("permitmc.algebra", "search_witness", "algebra.search"),
    ("permitmc.algebra", "verify_witness", "algebra.verify"),
    ("permitmc.algebra", "verify_closure", "algebra.closure"),
    ("permitmc.algebra", "closure_step", "algebra.closure"),
    ("permitmc.deduction", "instantiate_axiom", "deduction.instantiate"),
    ("permitmc.deduction", "check_validity", "deduction.validity"),
    ("permitmc.deduction", "check_rule_locally", "deduction.rule"),
    ("permitmc.deduction", "verify_derivation", "deduction.derivation"),
    ("permitmc.atl", "verify_translation", "atl.verify"),
    ("permitmc.atl", "expand_model", "atl.expand"),
    ("permitmc.atl", "translate_formula", "atl.translate"),
    ("permitmc.atl", "eval_atl", "atl.eval"),
    ("permitmc.generate", "random_model", "generate.model"),
    ("permitmc.generate", "random_formula", "generate.formula"),
    ("permitmc.generate", "replicate_model", "generate.replicate"),
    ("permitmc.fixtures", "load_fixture", "fixtures.load"),
    ("permitmc.fixtures", "load_derivation_fixture", "fixtures.load"),
    ("permitmc.fixtures", "run_fixture", "fixtures.run"),
)

# Per-layer metrics in the order BENCHMARK.json lists them, with their units.
# Span times (_ms) and span counts are per traced round of an in-process
# workload (one pass over all its inputs) and per traced call of cli, so they
# follow the cost of a fixed amount of work, not how many rounds fit in the
# run. The exceptions: cli.interp_start_ms and cli.import_ms are medians per
# process start; generate.* of an in-process workload are timed once, during
# set-up; ratios and the gates' mismatch counts are over the whole run. A
# layer a workload does not use reports 0.
PER_LAYER = (
    ("cli.interp_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_self_ms", "ms"),
    ("cli.exit_mismatches", "count"),
    ("model.load_ms", "ms"),
    ("model.validate_ms", "ms"),
    ("model.make_ms", "ms"),
    ("model.entries", "count"),
    ("formula.parse_ms", "ms"),
    ("formula.nodes", "count"),
    ("checker.check_ms", "ms"),
    *((f"checker.modal_self_ms.{k}", "ms") for k in MODALITIES),
    ("checker.bool_self_ms", "ms"),
    ("checker.modal_steps", "count"),
    ("checker.memo_hit_ratio", "ratio"),
    ("checker.steps_per_model", "count"),
    ("checker.oracle_mismatches", "count"),
    ("checker.doubling_ratio", "ratio"),
    ("algebra.search_ms", "ms"),
    ("algebra.closure_ms", "ms"),
    ("algebra.candidates", "count"),
    ("algebra.found_ratio", "ratio"),
    ("deduction.instantiate_ms", "ms"),
    ("deduction.validity_ms", "ms"),
    ("deduction.rule_ms", "ms"),
    ("deduction.derivation_ms", "ms"),
    ("deduction.counterexamples", "count"),
    ("atl.translate_ms", "ms"),
    ("atl.expand_ms", "ms"),
    ("atl.eval_ms", "ms"),
    ("atl.expanded_states", "count"),
    ("atl.mismatches", "count"),
    ("generate.model_ms", "ms"),
    ("generate.formula_ms", "ms"),
    ("fixtures.load_ms", "ms"),
    ("fixtures.run_ms", "ms"),
    ("harness.self_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("small.search_share_pct", "%"),
    ("small.soundness_share_pct", "%"),
    ("small.translation_share_pct", "%"),
    ("small.derivation_share_pct", "%"),
)


def permitmc_modules() -> list[Any]:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "permitmc" or name.startswith("permitmc."))
    ]


class LayerTracing:
    """Installs and removes the layer wrappers around one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches = Patches()
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._last_model: Any = None

    def _model_seen(self, model: Any) -> None:
        if model is not self._last_model:
            self._last_model = model
            self.tracer.count("models")

    def install(self) -> None:
        from permitmc.checker import ModelChecker
        from permitmc.formula import Modal, size

        tracer = self.tracer
        modules = permitmc_modules()
        hooks = {
            "model.validate": lambda a, k, r: tracer.count(
                "entries", sum(len(v) for v in a[0].mechanism.values())
            ),
            "formula.parse": lambda a, k, r: tracer.count("nodes", size(r)),
            "algebra.search": lambda a, k, r: (
                tracer.count("candidates", r.candidates),
                tracer.count("found", 1 if r.found else 0),
            ),
            "atl.expand": lambda a, k, r: tracer.count("expanded_states", len(r.states)),
        }
        for module_name, attr, span in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], attr)
            after = hooks.get(span)
            if span.startswith("checker.modal."):
                after = self._direct_modal_step
            self._patches.everywhere(modules, original, traced(tracer, original, span, after))

        seen = self._seen
        node_names = {kind: f"checker.node.{kind}" for kind in MODALITIES}

        def node_name(checker, f):
            done = seen.get(checker)
            if done is None:
                done = seen[checker] = set()
            tracer.count("lookups")
            if f in done:
                tracer.count("hits")
            else:
                done.add(f)
                if isinstance(f, Modal):
                    tracer.count("modal_steps")
                    self._model_seen(checker.model)
            if isinstance(f, Modal):
                return node_names[f.kind.value]
            return "checker.node.bool"

        self._patches.set(
            ModelChecker, "truth_set", traced(tracer, ModelChecker.truth_set, node_name)
        )

    def _direct_modal_step(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.tracer.count("modal_steps")
        self._model_seen(args[0])

    def remove(self) -> None:
        self._patches.remove()


# Metrics that are ratios of counts, and so need no division by the rounds.
RATIOS = frozenset({"checker.memo_hit_ratio", "checker.steps_per_model", "algebra.found_ratio"})


def layer_metrics(
    summary: dict[str, dict[str, float]], counters: dict[str, float], rounds: int = 1
) -> dict[str, float]:
    """Per-layer metrics from a span summary and counters gathered over
    ``rounds`` rounds, as values per round; every name in PER_LAYER that
    spans and counters can give. Workload-level entries (gates, tracing
    overhead, task shares) are filled in by the caller."""
    c = counters.get
    modal = {
        k: self_ms(summary, f"checker.node.{k}", f"checker.modal.{k}") for k in MODALITIES
    }
    bool_ms = self_ms(summary, "checker.node.bool")
    lookups = c("lookups", 0)
    models = c("models", 0)
    candidates = c("candidates", 0)
    totals = {
        "cli.main_self_ms": self_ms(summary, "cli.main"),
        "model.load_ms": self_ms(summary, "model.json", "model.from_dict"),
        "model.validate_ms": self_ms(summary, "model.validate"),
        "model.make_ms": self_ms(summary, "model.make"),
        "model.entries": c("entries", 0),
        "formula.parse_ms": self_ms(summary, "formula.parse"),
        "formula.nodes": c("nodes", 0),
        "checker.check_ms": sum(modal.values()) + bool_ms,
        **{f"checker.modal_self_ms.{k}": v for k, v in modal.items()},
        "checker.bool_self_ms": bool_ms,
        "checker.modal_steps": c("modal_steps", 0),
        "checker.memo_hit_ratio": c("hits", 0) / lookups if lookups else 0.0,
        "checker.steps_per_model": c("modal_steps", 0) / models if models else 0.0,
        "algebra.search_ms": self_ms(summary, "algebra.search"),
        "algebra.closure_ms": self_ms(summary, "algebra.closure", "algebra.verify"),
        "algebra.candidates": candidates,
        "algebra.found_ratio": c("found", 0) / candidates if candidates else 0.0,
        "deduction.instantiate_ms": self_ms(summary, "deduction.instantiate"),
        "deduction.validity_ms": self_ms(summary, "deduction.validity"),
        "deduction.rule_ms": self_ms(summary, "deduction.rule"),
        "deduction.derivation_ms": self_ms(summary, "deduction.derivation"),
        "atl.translate_ms": self_ms(summary, "atl.verify", "atl.translate"),
        "atl.expand_ms": self_ms(summary, "atl.expand"),
        "atl.eval_ms": self_ms(summary, "atl.eval"),
        "atl.expanded_states": c("expanded_states", 0),
        "generate.model_ms": covered_ms(summary, "generate.model", "generate.replicate"),
        "generate.formula_ms": covered_ms(summary, "generate.formula"),
        "fixtures.load_ms": self_ms(summary, "fixtures.load"),
        "fixtures.run_ms": self_ms(summary, "fixtures.run"),
        "harness.self_ms": self_ms(summary, "harness.op"),
    }
    return {k: v if k in RATIOS else v / rounds for k, v in totals.items()}
