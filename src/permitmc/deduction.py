"""Hilbert-style proof machinery: axiom schemas, tautology checking, local
rule soundness checks, a seeded soundness fuzz, and derivation verification.

The system has nine axiom schemas (A1..A9) over agents and formulas, plus
four inference rules: modus ponens (encoded as ``mp`` steps), a monotonicity
rule for WA (``ir2``), an anti-monotonicity rule for SA (``ir3``), and a
conflict-prevention rule connecting WE and SE across distinct agents
(``ir4``). Each schema, like the three derived theorems kept for fuzzing, is
written as formula text in the concrete syntax. Its metavariables are plain
names: the agents and propositions the text names, which instantiation
replaces by name. A derivation is a numbered list of steps, each carrying the
justification that must reproduce it exactly; verification is purely
syntactic, as in any Hilbert kernel. Formulas are interned, so "reproduces
exactly" is an identity test, and substitution and the tautology check are
each one ``formula.fold``.
"""

from __future__ import annotations

import random
from operator import invert, or_
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .checker import ModelChecker
from .errors import CapacityError, InputError
from .formula import (
    BOT,
    TOP,
    TOP_PROP,
    Formula,
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    conj,
    disj,
    fold,
    format_formula,
    implies,
    match_and,
    match_implies,
    parse,
    subformulas,
)
from .model import TransitionSystem
from .record import Record

TAUTOLOGY_ATOM_CAP = 20


class AxiomSchema(Record):
    __slots__ = ("id", "agent_vars", "formula_vars", "template")
    id: str
    agent_vars: tuple[str, ...]
    formula_vars: tuple[str, ...]
    template: Formula

    def __init__(
        self, id: str, agent_vars: tuple[str, ...], formula_vars: tuple[str, ...],
        template: Formula,
    ) -> None:
        set_id, set_agent_vars, set_formula_vars, set_template = self._setters
        set_id(self, id)
        set_agent_vars(self, agent_vars)
        set_formula_vars(self, formula_vars)
        set_template(self, template)


def _schemas(*rows: tuple[str, str]) -> dict[str, AxiomSchema]:
    """Schemas by id, each parsed from its template text. The metavariables
    are plain names: the template's agents are its agent variables and its
    propositions other than the reserved ``__top`` its formula variables,
    each sorted."""
    schemas: dict[str, AxiomSchema] = {}
    for schema_id, text in rows:
        template = parse(text)
        nodes = list(subformulas(template))
        agents = sorted({g.agent for g in nodes if isinstance(g, Modal)})
        props = sorted({g.name for g in nodes if isinstance(g, Prop) and g.name != TOP_PROP})
        schemas[schema_id] = AxiomSchema(schema_id, tuple(agents), tuple(props), template)
    return schemas


AXIOMS = _schemas(
    ("A1", "!WA[a] false"),
    ("A2", "WE[a] true"),
    ("A3", "SA[a] false"),
    ("A4", "SE[a] true -> SA[a] true"),
    ("A5", "WA[a] (phi | psi) -> WA[a] phi | WA[a] psi"),
    ("A6", "SA[a] phi & SA[a] psi -> SA[a] (phi | psi)"),
    ("A7", "WE[a] phi & !WE[a] psi -> WA[a] (phi & !psi)"),
    ("A8", "!SE[a] phi & SE[a] psi -> !SA[a] (phi & !psi)"),
    ("A9", "!WA[a] phi & SA[a] psi -> !WA[b] (phi & psi) & SA[b] (phi & psi)"),
)

# Theorems derivable in the system, kept as semantic validity fixtures for
# fuzzing alongside the axioms. Each is a schema instantiated the same way.
DERIVED_SCHEMAS = _schemas(
    ("WE-refinement", "WE[a] phi & !WA[a] psi -> WE[a] (phi & !psi)"),
    ("SE-refinement", "!SE[a] phi & SA[a] psi -> !SE[a] (phi & !psi)"),
    ("WA-transfer", "!WA[a] phi & SA[a] true -> !WA[b] phi & SA[b] phi"),
)


def instantiate_axiom(schema: AxiomSchema, bindings: Mapping[str, Any]) -> Formula:
    """Fill a schema's metavariables. Agent variables bind to agent names,
    formula variables to formulas (or concrete syntax to be parsed)."""
    agents: dict[str, str] = {}
    for var in schema.agent_vars:
        if var not in bindings:
            raise InputError(f"missing binding for agent variable {var!r} of {schema.id}")
        value = bindings[var]
        if not isinstance(value, str):
            raise InputError(f"agent variable {var!r} must bind to an agent name")
        agents[var] = value
    formulas: dict[str, Formula] = {}
    for var in schema.formula_vars:
        if var not in bindings:
            raise InputError(f"missing binding for formula variable {var!r} of {schema.id}")
        value = bindings[var]
        formulas[var] = parse(value) if isinstance(value, str) else value
    # One simultaneous substitution over the template, which as parsed text
    # holds only Prop, Neg, Or and Modal nodes.
    out: dict[Formula, Formula] = {}

    def leaf(g: Formula) -> Formula:
        if isinstance(g, Prop):
            return formulas.get(g.name, g)
        return Modal(g.kind, agents[g.agent], out[g.child])

    return fold(schema.template, out, Neg, Or, leaf)


# --- semantic validity -----------------------------------------------------------


class ValidityVerdict(Record):
    __slots__ = ("valid", "counterexample")
    valid: bool
    counterexample: str | None

    def __init__(self, valid: bool, counterexample: str | None = None) -> None:
        set_valid, set_counterexample = self._setters
        set_valid(self, valid)
        set_counterexample(self, counterexample)


def check_validity(m: TransitionSystem, f: Formula) -> ValidityVerdict:
    """Valid iff ``f`` holds at every state of ``m``; otherwise reports the
    first failing state in the model's state order."""
    return _verdict(ModelChecker(m), f)


def _verdict(checker: ModelChecker, f: Formula) -> ValidityVerdict:
    """``check_validity`` on the checker's model, reusing what the checker
    already labelled."""
    ts = checker.truth_set(f)
    for s in checker.model.states:
        if s not in ts:
            return ValidityVerdict(False, s)
    return ValidityVerdict(True)


# --- tautologies ------------------------------------------------------------------


def is_tautology(f: Formula) -> bool:
    """Propositional tautology check treating maximal modal subformulas and
    propositions as atoms. Rejects formulas with more than
    ``TAUTOLOGY_ATOM_CAP`` atoms.
    The walk does not enter modal atoms. A subformula's truth table is one
    integer, whose bit r is set when it holds in row r."""
    atoms = [g for g in subformulas(f, leaves=Modal) if isinstance(g, (Prop, Modal))]
    if len(atoms) > TAUTOLOGY_ATOM_CAP:
        raise CapacityError(
            f"{len(atoms)} atoms exceed the truth-table cap of {TAUTOLOGY_ATOM_CAP}"
        )
    # Atom k of n holds in the rows whose bit k is clear, (2**2**n - 1) // (2**2**k + 1);
    # shifts build these columns in linear time, where dividing is quadratic.
    columns: list[int] = []
    for _ in atoms:
        rows = 1 << len(columns)  # each atom doubles the rows, holding in the first half
        columns = [c | c << rows for c in columns] + [(1 << rows) - 1]

    def leaf(g: Formula) -> int:
        raise InputError(f"not a formula node: {g!r}")

    # Negation is ~, so a table also sets bits above its last row. No atom's
    # column has a bit there, so each of those bits repeats the last row,
    # where every atom is false: the formula holds in every row exactly
    # when its table is -1.
    return fold(f, dict(zip(atoms, columns)), invert, or_, leaf) == -1


# --- inference rules ---------------------------------------------------------------

RULES = ("ir2", "ir3", "ir4")

# Reads a formula as the first part of a right-nested chain and the rest.
Splitter = Callable[[Formula], tuple[Formula, Formula] | None]


def _split_or(f: Formula) -> tuple[Formula, Formula] | None:
    """The two sides of ``f`` read as a disjunction; ``true``, which desugars
    to one, is not read as one."""
    return (f.left, f.right) if isinstance(f, Or) and f != TOP else None


def _unfold(f: Formula, n: int, split: Splitter, empty: Formula) -> list[Formula] | None:
    """Read ``f`` as a right-nested chain of exactly ``n`` parts, cut by
    ``split``; the empty chain is ``empty``."""
    if n == 0:
        return [] if f == empty else None
    parts: list[Formula] = []
    for _ in range(n - 1):
        pair = split(f)
        if pair is None:
            return None
        parts.append(pair[0])
        f = pair[1]
    parts.append(f)
    return parts


def rule_conclusion(
    rule: str, premise: Formula, agents: tuple[str, ...], se_agents: tuple[str, ...] = ()
) -> Formula:
    """The formula that ``rule`` infers from ``premise``.

    - ir2, one agent a: from phi -> psi infer WA[a] phi -> WA[a] psi.
    - ir3, one agent a: from phi -> psi infer SA[a] psi -> SA[a] phi.
    - ir4, WE agents a1..an (``agents``) and SE agents b1..bm (``se_agents``),
      all distinct: from phi1 & .. & phin -> !psi1 | .. | !psim infer
      WE[a1] phi1 & .. & WE[an] phin -> SE[b1] psi1 | .. | SE[bm] psim, an
      empty conjunction reading as true and an empty disjunction as false.

    Raises ``InputError`` with the reason when the rule, the agents or the
    premise do not fit."""
    if rule not in RULES:
        raise InputError(f"unknown rule {rule!r}")
    if rule != "ir4" and (len(agents) != 1 or se_agents):
        raise InputError(f"{rule} takes exactly one agent")
    all_agents = (*agents, *se_agents)
    if len(set(all_agents)) != len(all_agents):
        raise InputError("agents of the rule must be distinct")
    pair = match_implies(premise)
    if pair is None:
        raise InputError("premise is not an implication")
    if rule != "ir4":
        kind, (phi, psi) = (Modality.WA, pair) if rule == "ir2" else (Modality.SA, pair[::-1])
        return implies(Modal(kind, agents[0], phi), Modal(kind, agents[0], psi))
    phis = _unfold(pair[0], len(agents), match_and, TOP)
    if phis is None:
        raise InputError(f"premise antecedent is not a conjunction of {len(agents)} parts")
    neg_psis = _unfold(pair[1], len(se_agents), _split_or, BOT)
    if neg_psis is None:
        raise InputError(f"premise consequent is not a disjunction of {len(se_agents)} parts")
    if not all(isinstance(part, Neg) for part in neg_psis):
        raise InputError("premise consequent parts must be negations")
    return implies(
        conj([Modal(Modality.WE, a, phi) for a, phi in zip(agents, phis)]),
        disj([Modal(Modality.SE, b, part.child) for b, part in zip(se_agents, neg_psis)]),
    )


def _modal_agents(side: Formula) -> tuple[str, ...]:
    """The agents of the distinct modal subformulas of ``side`` that lie
    under no other modal formula, left to right."""
    return tuple(g.agent for g in subformulas(side, leaves=Modal) if isinstance(g, Modal))


def check_rule_locally(
    m: TransitionSystem | ModelChecker, rule: str, premise: Formula, conclusion: Formula
) -> ValidityVerdict:
    """Per-model soundness check of one rule application: when the premise is
    valid in ``m``, the conclusion must be too. The conclusion must be the one
    ``rule_conclusion`` infers from the premise for the agents it names.
    Returns the conclusion's verdict, or a valid one when the premise is not
    valid in ``m``: the check then passes vacuously. ``m`` is the model, or
    a ``ModelChecker`` of it whose labels the check reuses."""
    pair = match_implies(conclusion)
    if pair is None:
        raise InputError("conclusion is not an implication")
    # The rule's conclusion for some agents names each of them once, in order,
    # in the modal formulas of its sides; any other reading fails below.
    agents = _modal_agents(pair[0])
    se_agents = _modal_agents(pair[1]) if rule == "ir4" else ()
    expected = rule_conclusion(rule, premise, agents, se_agents)
    if conclusion != expected:
        raise InputError(f"conclusion is not {format_formula(expected)!r}")
    # the conclusion contains the premise's parts
    checker = m if isinstance(m, ModelChecker) else ModelChecker(m)
    if not _verdict(checker, premise).valid:
        return ValidityVerdict(True)
    return _verdict(checker, conclusion)


def _random_formula(m: TransitionSystem, rng: random.Random, depth: int) -> Formula:
    from .generate import random_formula  # only the fuzz runs the generator
    return random_formula(rng.getrandbits(32), depth, m.agents, sorted(m.valuation) or ["p0"])


def random_instances(
    m: TransitionSystem | ModelChecker,
    schemas: Iterable[AxiomSchema],
    rng: random.Random,
    depth: int,
) -> Iterator[tuple[AxiomSchema, Formula, ValidityVerdict]]:
    """Each schema in order, with one instance on ``m`` drawn from ``rng`` and
    its validity verdict. Agent variables bind to agents of ``m``, formula
    variables to random formulas of depth ``depth``, in variable order. One
    checker labels every instance: ``m`` itself when it is a
    ``ModelChecker``, else a new one of the model ``m``."""
    checker = m if isinstance(m, ModelChecker) else ModelChecker(m)
    m = checker.model
    for schema in schemas:
        bindings: dict[str, Any] = {var: rng.choice(m.agents) for var in schema.agent_vars}
        bindings.update((var, _random_formula(m, rng, depth)) for var in schema.formula_vars)
        instance = instantiate_axiom(schema, bindings)
        yield schema, instance, _verdict(checker, instance)


def soundness_round(m: TransitionSystem, rng: random.Random, depth: int) -> tuple[int, list[str]]:
    """Every axiom and derived schema once and every rule once (ir4 only where
    ``m`` has two agents); returns how many checks ran and the counterexamples.
    One checker labels the instances and the rule checks."""
    schemas = [*AXIOMS.values(), *DERIVED_SCHEMAS.values()]
    checker = ModelChecker(m)
    problems = [
        f"{schema.id} fails at {verdict.counterexample}: {format_formula(instance)}"
        for schema, instance, verdict in random_instances(checker, schemas, rng, depth)
        if not verdict.valid
    ]
    phi, psi = _random_formula(m, rng, depth), _random_formula(m, rng, depth)
    agent = rng.choice(m.agents)
    rules = [("ir2", implies(phi, psi), (agent,), ()), ("ir3", implies(phi, psi), (agent,), ())]
    if len(m.agents) >= 2:
        a, b = rng.sample(list(m.agents), 2)
        rules.append(("ir4", implies(phi, Neg(psi)), (a,), (b,)))
    for rule, premise, agents, se_agents in rules:
        conclusion = rule_conclusion(rule, premise, agents, se_agents)
        verdict = check_rule_locally(checker, rule, premise, conclusion)
        if not verdict.valid:
            problems.append(f"{rule} fails at {verdict.counterexample}")
    return len(schemas) + len(rules), problems


# --- derivations -----------------------------------------------------------------

# justification kind -> how many steps it cites
CITES = {"axiom": 0, "taut": 0, "mp": 2, "ir2": 1, "ir3": 1, "ir4": 1}


class DerivationStep(Record):
    """One step as its JSON object reads: the formula and the lower-cased
    kind ``by`` of its justification, a key of ``CITES``. ``cites`` holds the
    1-based numbers of the steps it cites: for ``mp`` the antecedent and then
    the implication, for a rule its premise. An axiom step also names its
    schema and bindings (variable -> agent name or formula text); a rule step
    names its agents as ``rule_conclusion`` takes them."""

    __slots__ = ("formula", "by", "cites", "axiom", "bindings", "agents", "se_agents")
    formula: Formula
    by: str
    cites: tuple[int, ...]
    axiom: str
    bindings: tuple[tuple[str, str], ...]
    agents: tuple[str, ...]
    se_agents: tuple[str, ...]

    def __init__(
        self,
        formula: Formula,
        by: str,
        cites: tuple[int, ...] = (),
        axiom: str = "",
        bindings: tuple[tuple[str, str], ...] = (),
        agents: tuple[str, ...] = (),
        se_agents: tuple[str, ...] = (),
    ) -> None:
        (set_formula, set_by, set_cites, set_axiom, set_bindings, set_agents,
         set_se_agents) = self._setters
        set_formula(self, formula)
        set_by(self, by)
        set_cites(self, cites)
        set_axiom(self, axiom)
        set_bindings(self, bindings)
        set_agents(self, agents)
        set_se_agents(self, se_agents)


class DerivationVerdict(Record):
    __slots__ = ("accepted", "failed_step", "reason")
    accepted: bool
    failed_step: int | None  # 1-based
    reason: str | None

    def __init__(
        self, accepted: bool, failed_step: int | None = None, reason: str | None = None
    ) -> None:
        set_accepted, set_failed_step, set_reason = self._setters
        set_accepted(self, accepted)
        set_failed_step(self, failed_step)
        set_reason(self, reason)


def verify_derivation(steps: Sequence[DerivationStep]) -> DerivationVerdict:
    """Accept iff every step reproduces exactly from its justification.

    Every step must cite earlier steps, as many as its kind takes. Axiom
    steps must equal the instantiated schema; taut steps must pass the
    truth-table check; mp steps require the cited implication step to be
    literally ``antecedent -> current``; rule steps require the current formula
    to be the one ``rule_conclusion`` infers from the cited premise (which
    includes the distinct-agents side condition of ir4)."""

    def reject(k: int, reason: str) -> DerivationVerdict:
        return DerivationVerdict(False, k, reason)

    for k, step in enumerate(steps, start=1):
        for r in step.cites:
            if not 1 <= r < k:
                return reject(k, f"reference to step {r} is out of range")
        arity = CITES.get(step.by)
        if arity is None:
            return reject(k, f"unknown justification {step.by!r}")
        if len(step.cites) != arity:
            return reject(k, f"{step.by} cites {arity} step(s), not {len(step.cites)}")
        cited = [steps[r - 1].formula for r in step.cites]
        if step.by == "axiom":
            schema = AXIOMS.get(step.axiom)
            if schema is None:
                return reject(k, f"unknown axiom {step.axiom!r}")
            try:
                expected = instantiate_axiom(schema, dict(step.bindings))
            except InputError as exc:
                return reject(k, str(exc))
            if step.formula != expected:
                return reject(k, f"formula is not the {step.axiom} instance for these bindings")
        elif step.by == "taut":
            if not is_tautology(step.formula):
                return reject(k, "formula is not a propositional tautology")
        elif step.by == "mp":
            antecedent, implication = cited
            if implication != implies(antecedent, step.formula):
                return reject(
                    k,
                    f"step {step.cites[1]} is not literally step {step.cites[0]} -> this formula",
                )
        else:
            try:
                expected = rule_conclusion(step.by, cited[0], step.agents, step.se_agents)
            except InputError as exc:
                return reject(k, str(exc))
            if step.formula != expected:
                return reject(k, f"conclusion is not {format_formula(expected)!r}")
    return DerivationVerdict(True)


# --- JSON codec -------------------------------------------------------------------


def derivation_from_dict(data: Any) -> tuple[DerivationStep, ...]:
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise InputError("derivation document must be an object with a 'steps' list")
    steps: list[DerivationStep] = []
    for i, raw in enumerate(data["steps"], start=1):
        if not isinstance(raw, dict) or "formula" not in raw or "by" not in raw:
            raise InputError(f"step {i} must be an object with 'formula' and 'by'")
        if not isinstance(raw["formula"], str):
            raise InputError(f"step {i}: 'formula' must be a string")
        f = parse(raw["formula"])
        by = raw["by"]
        if not isinstance(by, str):
            raise InputError(f"step {i}: 'by' must be a string")
        kind, colon, arg = by.partition(":")
        kind = kind.lower()
        if kind == "axiom":
            bind = raw.get("bind", {})
            if not isinstance(bind, dict):
                raise InputError(f"step {i}: 'bind' must be an object")
            if not all(isinstance(v, str) for v in bind.values()):
                raise InputError(f"step {i}: 'bind' values must be strings")
            bindings = tuple(sorted(bind.items()))
            steps.append(DerivationStep(f, kind, axiom=arg, bindings=bindings))
        elif kind == "taut":
            if colon:
                raise InputError(f"step {i}: taut takes no argument, got {by!r}")
            steps.append(DerivationStep(f, kind))
        elif kind == "mp":
            steps.append(DerivationStep(f, kind, _int_args(arg, CITES[kind], i)))
        elif kind in ("ir2", "ir3"):
            agent = raw.get("agent")
            if not isinstance(agent, str):
                raise InputError(f"step {i}: {kind} needs an 'agent' field")
            steps.append(DerivationStep(f, kind, _int_args(arg, CITES[kind], i), agents=(agent,)))
        elif kind == "ir4":
            cites = _int_args(arg, CITES[kind], i)
            we = raw.get("as", [])
            se = raw.get("bs", [])
            if not all(
                isinstance(names, list) and all(isinstance(x, str) for x in names)
                for names in (we, se)
            ):
                raise InputError(f"step {i}: 'as' and 'bs' must be lists of agent names")
            steps.append(DerivationStep(f, kind, cites, agents=tuple(we), se_agents=tuple(se)))
        else:
            raise InputError(f"step {i}: unknown justification kind {kind!r}")
    return tuple(steps)


def _int_args(arg: str, n: int, step: int) -> tuple[int, ...]:
    parts = arg.split(",") if arg else []
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"step {step}: step references must be integers") from exc
    if len(values) != n:
        raise InputError(f"step {step}: expected {n} step reference(s)")
    return values
