"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All randomness is seed-pinned, so reruns are bit-identical.
"""

import random
import statistics
import time

from strategies import enumerate_formulas

from permitmc.algebra import (
    SearchBounds,
    default_family,
    search_witness,
    verify_witness,
)
from permitmc.atl import verify_translation
from permitmc.checker import ModelChecker, check_state_naive, model_check
from permitmc.deduction import (
    AXIOMS,
    DERIVED_SCHEMAS,
    DerivationStep,
    check_rule_locally,
    check_validity,
    instantiate_axiom,
    verify_derivation,
)
from permitmc.fixtures import load_derivation_fixture, load_fixture
from permitmc.formula import (
    BOT,
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    and_,
    implies,
    modal_depth,
    parse,
)
from permitmc.generate import GenParams, random_formula, random_model, replicate_model


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number: int, description: str, ok: bool, elapsed: float, budget: float) -> None:
    in_budget = elapsed <= budget
    status = "PASS" if ok and in_budget else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {number} failed"
    assert in_budget, f"criterion {number} took {elapsed:.2f}s, budget {budget:g}s"


def test_criterion_1_fig1_golden_values():
    fig1 = load_fixture("fig1-wa").model
    with Timer() as t:
        ok = (
            sorted(model_check(fig1, parse("p"))) == ["u"]
            and sorted(model_check(fig1, parse("WA[a] p"))) == ["s", "u"]
            and sorted(model_check(fig1, parse("WE[a] p"))) == ["u"]
        )
    report(1, "three-state fixture golden truth sets", ok, t.elapsed, 0.1)


def test_criterion_2_truth_set_closure():
    fig1 = load_fixture("fig1-wa").model
    family = default_family(fig1, "p")
    closed_mods = [Modality.WE, Modality.SE, Modality.SA]
    with Timer() as t:
        from permitmc.algebra import closure_step

        images_in = 0
        ok = True
        for modality in closed_mods:
            for agent in fig1.agents:
                for image in closure_step(fig1, family, modality, agent).values():
                    images_in += 1
                    ok = ok and image in family
        ok = ok and images_in == 24
        escape = model_check(fig1, parse("WA[a] p"))
        ok = ok and escape not in family
        sweep = enumerate_formulas(3, closed_mods, list(fig1.agents), [Prop("p")])
        shared = ModelChecker(fig1)
        ok = ok and all(shared.truth_set(f) in family for f in sweep)
    report(
        2,
        f"family closed under 24 images and a {len(sweep)}-formula depth-3 sweep, "
        "with the target escaping",
        ok,
        t.elapsed,
        5.0,
    )


def test_criterion_3_witnesses_verified_and_found():
    with Timer() as t:
        ok = True
        ok = ok and verify_witness(load_fixture("fig2-we").model, Modality.WE, "p")["ok"]
        ok = ok and verify_witness(load_fixture("fig3-se").model, Modality.SE, "p")["ok"]
        ok = ok and verify_witness(load_fixture("fig4-sa").model, Modality.SA, "p")["ok"]
        fig5 = load_fixture("fig5-single-agent")
        ok = ok and verify_witness(
            fig5.models["target-wa"], Modality.WA, "p",
            closed_modalities=[Modality.SA, Modality.SE],
        )["ok"]
        ok = ok and verify_witness(
            fig5.models["target-sa"], Modality.SA, "p",
            closed_modalities=[Modality.WA, Modality.WE],
        )["ok"]

        # Independent search, 3 states and 2 agents throughout. Two actions per
        # (state, agent) leave room for at most one non-permitted action there,
        # which forces every strong-modality image back into the four-member
        # family (the family is a Boolean algebra and the escape set would be a
        # difference of images), so the weak targets run at two actions and the
        # strong targets at the minimum feasible three. The exhaustion runs
        # document the two-action impossibility.
        weak = SearchBounds(max_states=3, num_agents=2, max_actions=2,
                            allow_nonpermitted=True, max_candidates=50_000)
        strong = SearchBounds(max_states=3, num_agents=2, max_actions=3,
                              allow_nonpermitted=True, max_candidates=50_000)
        for target, bounds in (
            (Modality.WA, weak),
            (Modality.WE, weak),
            (Modality.SE, strong),
            (Modality.SA, strong),
        ):
            result = search_witness(target, bounds, seed=7)
            ok = ok and result.found and result.report is not None and result.report["ok"]
        probe = SearchBounds(max_states=3, num_agents=2, max_actions=2,
                             allow_nonpermitted=True, max_candidates=4000)
        for target in (Modality.SE, Modality.SA):
            ok = ok and not search_witness(target, probe, seed=7).found
    report(3, "fixture witnesses verify and search finds all four targets",
           ok, t.elapsed, 60.0)


def test_criterion_4_single_agent_deterministic_collapse():
    rng = random.Random(2024)
    violations = 0
    with Timer() as t:
        for k in range(200):
            m = random_model(
                GenParams(
                    seed=rng.getrandbits(32),
                    num_agents=1,
                    num_states=1 + k % 6,
                    max_actions=1 + k % 3,
                    num_props=2,
                    permitted_density=(0.5, 1.0)[k % 2],
                    branching=1,
                )
            )
            for _ in range(50):
                f = random_formula(rng.getrandbits(32), 3, m.agents, ["p0", "p1"])
                if model_check(m, Modal(Modality.WA, "a", f)) != model_check(
                    m, Modal(Modality.WE, "a", f)
                ):
                    violations += 1
                if model_check(m, Modal(Modality.SA, "a", f)) != model_check(
                    m, Modal(Modality.SE, "a", f)
                ):
                    violations += 1
    report(4, "weak/strong pairs collapse on 200x50 single-agent deterministic runs",
           violations == 0, t.elapsed, 30.0)


def test_criterion_5_soundness_fuzz():
    rng = random.Random(505)
    counterexamples = 0
    with Timer() as t:
        for k in range(500):
            m = random_model(
                GenParams(
                    seed=rng.getrandbits(32),
                    num_agents=1 + k % 3,
                    num_states=1 + k % 5,
                    max_actions=1 + k % 3,
                    num_props=2,
                    permitted_density=(0.4, 0.7, 1.0)[k % 3],
                    branching=1 + k % 2,
                )
            )
            props = sorted(m.valuation)
            for schema in list(AXIOMS.values()) + list(DERIVED_SCHEMAS.values()):
                bindings = {}
                for var in schema.agent_vars:
                    bindings[var] = rng.choice(m.agents)
                for var in schema.formula_vars:
                    bindings[var] = random_formula(rng.getrandbits(32), 3, m.agents, props)
                if not check_validity(m, instantiate_axiom(schema, bindings)).valid:
                    counterexamples += 1
            phi = random_formula(rng.getrandbits(32), 3, m.agents, props)
            psi = random_formula(rng.getrandbits(32), 3, m.agents, props)
            agent = rng.choice(m.agents)
            if not check_rule_locally(
                m, "ir2", implies(phi, psi),
                implies(Modal(Modality.WA, agent, phi), Modal(Modality.WA, agent, psi)),
            ).valid:
                counterexamples += 1
            if not check_rule_locally(
                m, "ir3", implies(phi, psi),
                implies(Modal(Modality.SA, agent, psi), Modal(Modality.SA, agent, phi)),
            ).valid:
                counterexamples += 1
            if len(m.agents) >= 2:
                a, b = rng.sample(list(m.agents), 2)
                if not check_rule_locally(
                    m, "ir4", implies(phi, Neg(psi)),
                    implies(Modal(Modality.WE, a, phi), Modal(Modality.SE, b, psi)),
                ).valid:
                    counterexamples += 1
    report(5, "500-model fuzz of all axiom schemas, derived schemas, and rules",
           counterexamples == 0, t.elapsed, 120.0)


def test_criterion_6_oracle_equivalence():
    rng = random.Random(606)
    mismatches = 0
    with Timer() as t:
        for k in range(500):
            m = random_model(
                GenParams(
                    seed=rng.getrandbits(32),
                    num_agents=1 + k % 3,
                    num_states=1 + k % 6,
                    max_actions=1 + k % 3,
                    num_props=2,
                    permitted_density=(0.5, 1.0)[k % 2],
                    branching=1 + k % 2,
                )
            )
            f = random_formula(rng.getrandbits(32), 4, m.agents, ["p0", "p1"])
            ts = model_check(m, f)
            for s in m.states:
                if (s in ts) != check_state_naive(m, s, f):
                    mismatches += 1
    report(6, "global checker agrees with the per-state oracle on 500 pairs",
           mismatches == 0, t.elapsed, 60.0)


def _modal_chain(layers: int):
    f = Prop("q0")
    for i in range(layers):
        f = Modal(list(Modality)[i % 4], "ab"[i % 2], Or(Prop(f"q{i % 8}"), f))
    return f


def _median_check_times(pairs, runs=5) -> list[float]:
    """Median over ``runs`` rounds, measured round-robin after a warmup pass
    so one transient stall cannot inflate a single size. Each timed run uses
    a fresh checker, so that it scans every key its formula needs; the
    warmup builds each model's successor rows."""
    for m, f in pairs:
        ModelChecker(m).truth_set(f)
    samples: list[list[float]] = [[] for _ in pairs]
    for _ in range(runs):
        for i, (m, f) in enumerate(pairs):
            t0 = time.perf_counter()
            ModelChecker(m).truth_set(f)
            samples[i].append(time.perf_counter() - t0)
    return [statistics.median(s) for s in samples]


def test_criterion_7_complexity_smoke():
    with Timer() as t:
        base_model = random_model(
            GenParams(seed=1234, num_states=24, num_agents=2, max_actions=3, branching=2)
        )
        formula_times = _median_check_times(
            [(base_model, _modal_chain(layers)) for layers in (96, 192, 384)]
        )
        formula_ratios = [b / a for a, b in zip(formula_times, formula_times[1:])]

        # Disjoint-union replication doubles |S|+|M|+|Delta| exactly.
        fixed_formula = _modal_chain(96)
        model_times = _median_check_times(
            [(replicate_model(base_model, copies), fixed_formula) for copies in (1, 2, 4)]
        )
        model_ratios = [b / a for a, b in zip(model_times, model_times[1:])]
        ok = all(r <= 3.0 for r in formula_ratios + model_ratios)
    detail = (
        f"formula doubling x{formula_ratios[0]:.2f}/x{formula_ratios[1]:.2f}, "
        f"model doubling x{model_ratios[0]:.2f}/x{model_ratios[1]:.2f}"
    )
    report(7, f"wall time grows at most 3x per doubling ({detail})", ok, t.elapsed, 60.0)


def test_criterion_8_translation_equivalence():
    rng = random.Random(808)
    failures = 0
    with Timer() as t:
        for k in range(200):
            m = random_model(
                GenParams(
                    seed=rng.getrandbits(32),
                    num_agents=2,
                    num_states=1 + k % 4,
                    max_actions=1 + k % 2,
                    num_props=2,
                    permitted_density=(0.5, 1.0)[k % 2],
                    branching=1 + k % 2,
                )
            )
            done = 0
            while done < 3:
                f = random_formula(rng.getrandbits(32), 3, m.agents, ["p0", "p1"])
                if modal_depth(f) > 2:
                    continue
                done += 1
                # verify_translation compares every expanded <state, subset>
                # against the subset-free direct truth set, so agreement also
                # establishes subset-tag independence.
                if not verify_translation(m, f).ok:
                    failures += 1
    report(8, "game translation matches direct checking on 200x3 runs",
           failures == 0, t.elapsed, 120.0)


def _universally_breaking_mutants(formula):
    """Mutations of one step's formula that invalidate any justification kind:
    the negation of an accepted formula, a contradiction built from it, and a
    conjunction with falsum are never axiom instances, tautologies, or exact
    rule/mp conclusions."""
    return (Neg(formula), and_(formula, Neg(formula)), and_(formula, BOT))


def test_criterion_9_derivation_checker():
    with Timer() as t:
        ok = True
        mutants_checked = 0
        for name in ("we-monotonicity", "se-antimonotonicity"):
            derivation = load_derivation_fixture(name)
            ok = ok and verify_derivation(derivation).accepted
            mutants = []
            for index, step in enumerate(derivation):
                for mutant_formula in _universally_breaking_mutants(step.formula):
                    mutants.append((index + 1, mutant_formula))
            for target_step, mutant_formula in mutants[:20]:
                steps = list(derivation)
                s = steps[target_step - 1]
                steps[target_step - 1] = DerivationStep(
                    mutant_formula, s.by, s.cites, s.axiom, s.bindings, s.agents, s.se_agents
                )
                verdict = verify_derivation(steps)
                mutants_checked += 1
                ok = ok and not verdict.accepted and verdict.failed_step == target_step
        ok = ok and mutants_checked == 40
    report(9, "shipped derivations accepted, 20 mutations each rejected in place",
           ok, t.elapsed, 5.0)


def test_criterion_10_factory_scenario():
    large = list(range(0, 101, 5))
    small = list(range(0, 61, 5))
    survives = lambda l, s: l + s <= 100  # noqa: E731

    with Timer() as t:
        ensuring = {str(l) for l in large if all(survives(l, s) for s in small)}
        admitting = {str(l) for l in large if any(survives(l, s) for s in small)}
        ok = ensuring == {str(a) for a in range(0, 41, 5)}
        ok = ok and admitting == {str(a) for a in range(0, 101, 5)}

        fx = load_fixture("factory")
        se = fx.models["se-regulation"]
        sa = fx.models["sa-regulation"]
        ok = ok and se.permitted_set("start", "large") == ensuring
        ok = ok and sa.permitted_set("start", "large") == admitting
        ok = ok and "start" in model_check(se, parse("SE[large] fishAlive"))
        ok = ok and "start" in model_check(sa, parse("SA[large] fishAlive"))

        c30 = fx.models["contract-min30"]
        c50 = fx.models["contract-min50"]
        # Oracle forecasts for the start state under each contract.
        c30_we = bool({str(l) for l in large if l >= 30} & ensuring)
        c50_we = bool({str(l) for l in large if l >= 50} & ensuring)
        c50_wa = bool({str(l) for l in large if l >= 50} & admitting)
        ok = ok and c30_we and not c50_we and c50_wa
        ok = ok and ("start" in model_check(c30, parse("WE[large] fishAlive"))) == c30_we
        ok = ok and ("start" in model_check(c50, parse("WE[large] fishAlive"))) == c50_we
        ok = ok and ("start" in model_check(c50, parse("WA[large] fishAlive"))) == c50_wa
    report(10, "factory permitted sets and contract statements match enumeration",
           ok, t.elapsed, 5.0)
