"""small-models: a seeded stream of tasks on many tiny models.

Four task kinds, one verdict each:

* witness search (search_witness) for each modality with a fixed seed list;
* soundness rounds: every axiom and derived schema instantiated and checked
  for validity, and rules ir2-ir4 checked locally, on one random model of at
  most 5 states, 3 agents and 3 actions with branching 2;
* verify_translation of a formula of modal depth 2 on a 30-state, 3-agent
  model where some profile has two successors, so the game needs Nature;
* verify_derivation of each builtin derivation.

The algebra, deduction and atl layers do their work here, and the checker is
used the opposite way from check-large: a few dozen truth-set steps on each of
thousands of models, so per-model set-up shows as a cost.
"""

from __future__ import annotations

import json
import os
import random

from harness import FAILED, Digest, OpLog

# (target, max_actions, search seed): seeds that find a witness within a few
# hundred candidates, fixed so that search cost does not depend on the run seed.
SEARCHES = (("WA", 2, 10), ("WE", 2, 4), ("SE", 3, 3), ("SA", 3, 2))
SEARCH_BUDGET = 5000

# Per round; sized so that no kind takes more than half of the wall time and
# the median and 90th percentile fall inside one kind's population each.
SOUNDNESS_PER_ROUND = 250
TRANSLATIONS_PER_ROUND = 40
DERIVATIONS_PER_ROUND = 50
SMOKE_COUNTS = (6, 3, 2)

SOUNDNESS_DEPTH = 3  # the soundness CLI default
DERIVATION_IDS = ("we-monotonicity", "se-antimonotonicity")


def translation_formula(k: int, agents: list[str]) -> str:
    """The k-th formula of modal depth 2: outer and inner modality run through
    all sixteen pairs and the agents rotate. Random formulas of the same depth
    vary fivefold in cost, which made the translation share swing with the seed."""
    kinds = ("WA", "WE", "SE", "SA")
    outer, inner = kinds[k % 4], kinds[(k // 4) % 4]
    a, b = agents[k % len(agents)], agents[(k + 1) % len(agents)]
    return f"{outer}[{a}] (p0 | {inner}[{b}] !p1)"


def _needs_nature(doc: dict) -> bool:
    targets: dict[tuple, set] = {}
    for t in doc["transitions"]:
        key = (t["from"], tuple(sorted(t["profile"].items())))
        targets.setdefault(key, set()).add(t["to"])
    return any(len(ts) > 1 for ts in targets.values())


class SmallModels:
    name = "small-models"

    def __init__(self, ctx):
        self.ctx = ctx
        self.tasks: list[tuple] = []
        self.expected: dict[int, object] = {}
        self.witnesses: dict[int, object] = {}
        self.rounds = 0

    # --- inputs ---------------------------------------------------------------

    def setup(self) -> Digest:
        from permitmc.deduction import AXIOMS, DERIVED_SCHEMAS
        from permitmc.formula import format_formula
        from permitmc.generate import GenParams, random_formula, random_model
        from permitmc.model import model_to_dict

        ctx = self.ctx
        rng = random.Random(ctx.seed * 6151 + 29)
        n_sound, n_trans, n_deriv = (
            SMOKE_COUNTS if ctx.smoke else (SOUNDNESS_PER_ROUND, TRANSLATIONS_PER_ROUND, DERIVATIONS_PER_ROUND)
        )
        schemas = list(AXIOMS.values()) + list(DERIVED_SCHEMAS.values())
        tasks: list[tuple] = [("search", t, acts, seed) for t, acts, seed in SEARCHES]

        for _ in range(n_sound):
            gen = GenParams(
                seed=rng.getrandbits(32),
                num_agents=rng.randint(1, 3),
                num_states=rng.randint(1, 5),
                max_actions=3,
                num_props=2,
                permitted_density=rng.choice((0.4, 0.7, 1.0)),
                branching=2,
            )
            m = random_model(gen)
            agents, props = list(m.agents), sorted(m.valuation)

            def formula():
                return random_formula(rng.getrandbits(32), SOUNDNESS_DEPTH, agents, props)

            bindings = []
            for schema in schemas:
                b = {var: rng.choice(agents) for var in schema.agent_vars}
                b.update({var: formula() for var in schema.formula_vars})
                bindings.append((schema, b))
            phi, psi = formula(), formula()
            agent = rng.choice(agents)
            pair = tuple(rng.sample(agents, 2)) if len(agents) >= 2 else None
            tasks.append(("soundness", json.dumps(model_to_dict(m)), bindings, (phi, psi, agent, pair)))

        k = 0
        while k < n_trans:
            gen = GenParams(
                seed=rng.getrandbits(32), num_states=30, num_agents=3, max_actions=2,
                num_props=2, permitted_density=0.7, branching=2,
            )
            doc = model_to_dict(random_model(gen))
            if _needs_nature(doc):
                tasks.append(("translation", json.dumps(doc), translation_formula(k, doc["agents"])))
                k += 1

        tasks += [("derivation", DERIVATION_IDS[i % 2]) for i in range(n_deriv)]
        rng.shuffle(tasks)
        self.tasks = tasks

        digest = Digest()
        out = os.path.join(ctx.out_dir, self.name)
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "tasks.jsonl"), "w", encoding="utf-8") as fh:
            for task in tasks:
                line = json.dumps(self._describe(task, format_formula))
                fh.write(line + "\n")
                digest.add("task", line)
        return digest

    @staticmethod
    def _describe(task: tuple, fmt) -> list:
        kind = task[0]
        if kind == "soundness":
            _, text, bindings, (phi, psi, agent, pair) = task
            return [
                kind,
                text,
                [[s.id, {k: v if isinstance(v, str) else fmt(v) for k, v in b.items()}] for s, b in bindings],
                [fmt(phi), fmt(psi), agent, pair],
            ]
        return list(task)

    # --- timed work -----------------------------------------------------------

    def run_block(self, log: OpLog, pm) -> None:
        """One round: every input once."""
        handlers = {
            "search": self._search,
            "soundness": self._soundness,
            "translation": self._translation,
            "derivation": self._derivation,
        }
        for i, task in enumerate(self.tasks):
            got = log.call(task[0], handlers[task[0]], pm, log.tracer, task)
            if got is FAILED:
                continue
            verdict = got[0]
            want = self.expected.setdefault(i, verdict)
            if i not in self.witnesses and len(got) > 1:
                self.witnesses[i] = got[1]
            if verdict != want:
                log.fail(f"task {i} ({task[0]}): verdict changed between rounds")
        self.rounds += 1

    @staticmethod
    def _load(pm, tracer, text):
        if tracer is not None:
            span = tracer.begin("model.json")
            doc = json.loads(text)
            tracer.finish(span)
        else:
            doc = json.loads(text)
        m = pm.model.model_from_dict(doc)
        violations = pm.model.validate_model(m)
        if violations:
            raise ValueError(f"generated model is invalid: {violations[0]}")
        return m

    @staticmethod
    def _search(pm, tracer, task):
        from permitmc.formula import Modality

        _, target, acts, seed = task
        bounds = pm.algebra.SearchBounds(
            max_states=3, num_agents=2, max_actions=acts, max_candidates=SEARCH_BUDGET
        )
        r = pm.algebra.search_witness(Modality(target), bounds, seed)
        return (r.found, r.candidates), r.model

    def _soundness(self, pm, tracer, task):
        from permitmc.formula import Modal, Modality, Neg, implies

        _, text, bindings, (phi, psi, agent, pair) = task
        m = self._load(pm, tracer, text)
        deduction = pm.deduction
        failures = []
        for schema, b in bindings:
            if not deduction.check_validity(m, deduction.instantiate_axiom(schema, b)).valid:
                failures.append(schema.id)
        rules = [
            ("ir2", implies(phi, psi), implies(Modal(Modality.WA, agent, phi), Modal(Modality.WA, agent, psi))),
            ("ir3", implies(phi, psi), implies(Modal(Modality.SA, agent, psi), Modal(Modality.SA, agent, phi))),
        ]
        if pair is not None:
            a, b = pair
            rules.append(
                ("ir4", implies(phi, Neg(psi)), implies(Modal(Modality.WE, a, phi), Modal(Modality.SE, b, psi)))
            )
        for rule, premise, conclusion in rules:
            if not deduction.check_rule_locally(m, rule, premise, conclusion).valid:
                failures.append(rule)
        return (tuple(failures),)

    def _translation(self, pm, tracer, task):
        _, text, formula = task
        m = self._load(pm, tracer, text)
        v = pm.atl.verify_translation(m, pm.formula.parse(formula))
        return ((v.ok, v.checked),)

    @staticmethod
    def _derivation(pm, tracer, task):
        d = pm.fixtures.load_derivation_fixture(task[1])
        return (pm.deduction.verify_derivation(d).accepted,)

    # --- correctness ----------------------------------------------------------

    def verdicts(self) -> str:
        """Digest of every verdict and found witness, so processes of one run
        can be compared."""
        from permitmc.model import model_to_dict

        digest = Digest()
        for i, verdict in sorted(self.expected.items()):
            digest.add(f"verdict:{i}", json.dumps(verdict))
        for i, model in sorted(self.witnesses.items()):
            doc = model_to_dict(model) if model is not None else None
            digest.add(f"witness:{i}", json.dumps(doc, sort_keys=True))
        return digest.hexdigest()

    def gate(self, log: OpLog, pm, counters: dict) -> None:
        """Every search finds a witness that the naive oracle confirms; no
        soundness counterexample; every translation agrees; both derivations
        are accepted. A failed task counts once per round it ran."""
        for i, task in enumerate(self.tasks):
            kind = task[0]
            verdict = self.expected.get(i)
            if verdict is None:
                continue
            problem = None
            if kind == "search":
                if not verdict[0]:
                    problem = f"no {task[1]} witness within {verdict[1]} candidates"
                else:
                    problem = recheck_witness(pm, self.witnesses.get(i), task[1])
                    if problem:
                        counters["checker.oracle_mismatches"] = counters.get("checker.oracle_mismatches", 0) + 1
            elif kind == "soundness" and verdict:
                problem = f"counterexamples to {', '.join(verdict)}"
                counters["deduction.counterexamples"] = counters.get("deduction.counterexamples", 0) + len(verdict)
            elif kind == "translation" and not verdict[0]:
                problem = "translation disagrees with direct checking"
                counters["atl.mismatches"] = counters.get("atl.mismatches", 0) + 1
            elif kind == "derivation" and not verdict:
                problem = f"derivation {task[1]} rejected"
            if problem:
                log.fail(f"task {i} ({kind}): {problem}", self.rounds)


def recheck_witness(pm, model, target: str) -> str | None:
    """Re-verify a found witness with check_state_naive: the images of
    [[p]], [[!p]], all states and no states under every other modality and
    agent stay in that family, and target[first agent] p escapes it."""
    from permitmc.checker import check_state_naive
    from permitmc.formula import BOT, TOP, Modal, Modality, Neg, Prop

    if model is None:
        return "search reported a witness without a model"
    if pm.model.validate_model(model):
        return "witness model is invalid"
    states = list(model.states)
    p_states = frozenset(model.valuation.get("p", ()))
    family = {p_states, frozenset(states) - p_states, frozenset(states), frozenset()}
    p = Prop("p")

    def image(kind, agent, child):
        f = Modal(kind, agent, child)
        return frozenset(s for s in states if check_state_naive(model, s, f))

    for kind in Modality:
        if kind.value == target:
            continue
        for agent in model.agents:
            for child in (p, Neg(p), TOP, BOT):
                if image(kind, agent, child) not in family:
                    return f"{kind.value}[{agent}] {child} leaves the family"
    if image(Modality(target), model.agents[0], p) in family:
        return f"{target}[{model.agents[0]}] p stays in the family"
    return None
