"""Hilbert-style proof machinery: axiom schemas, tautology checking, local
rule soundness checks, and derivation verification.

The system has nine axiom schemas (A1..A9) over agents and formulas, plus
four inference rules: modus ponens (encoded as ``mp`` steps), a monotonicity
rule for WA (``ir2``), an anti-monotonicity rule for SA (``ir3``), and a
conflict-prevention rule connecting WE and SE across distinct agents
(``ir4``). A derivation is a numbered list of steps, each carrying the
justification that must reproduce it exactly; verification is purely
syntactic, as in any Hilbert kernel. Formulas are interned, so "reproduces
exactly" is an identity test, and substitution and the tautology check run
on the one ``formula.postorder`` walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Mapping

from .checker import model_check
from .errors import CapacityError, InputError
from .formula import (
    BOT,
    TOP,
    Formula,
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    and_,
    conj,
    disj,
    format_formula,
    implies,
    match_and,
    match_implies,
    parse,
    postorder,
)
from .model import TransitionSystem

TAUTOLOGY_ATOM_CAP = 20

# Metavariable markers; these never appear in parsed formulas because "?" is
# not part of the concrete syntax.
_AGENT_A = "?a"
_AGENT_B = "?b"
_PHI = Prop("?phi")
_PSI = Prop("?psi")


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    agent_vars: tuple[str, ...]
    formula_vars: tuple[str, ...]
    template: Formula


AXIOMS: dict[str, AxiomSchema] = {
    schema.id: schema
    for schema in (
        AxiomSchema("A1", ("a",), (), Neg(Modal(Modality.WA, _AGENT_A, BOT))),
        AxiomSchema("A2", ("a",), (), Modal(Modality.WE, _AGENT_A, TOP)),
        AxiomSchema("A3", ("a",), (), Modal(Modality.SA, _AGENT_A, BOT)),
        AxiomSchema(
            "A4",
            ("a",),
            (),
            implies(Modal(Modality.SE, _AGENT_A, TOP), Modal(Modality.SA, _AGENT_A, TOP)),
        ),
        AxiomSchema(
            "A5",
            ("a",),
            ("phi", "psi"),
            implies(
                Modal(Modality.WA, _AGENT_A, Or(_PHI, _PSI)),
                Or(Modal(Modality.WA, _AGENT_A, _PHI), Modal(Modality.WA, _AGENT_A, _PSI)),
            ),
        ),
        AxiomSchema(
            "A6",
            ("a",),
            ("phi", "psi"),
            implies(
                and_(Modal(Modality.SA, _AGENT_A, _PHI), Modal(Modality.SA, _AGENT_A, _PSI)),
                Modal(Modality.SA, _AGENT_A, Or(_PHI, _PSI)),
            ),
        ),
        AxiomSchema(
            "A7",
            ("a",),
            ("phi", "psi"),
            implies(
                and_(Modal(Modality.WE, _AGENT_A, _PHI), Neg(Modal(Modality.WE, _AGENT_A, _PSI))),
                Modal(Modality.WA, _AGENT_A, and_(_PHI, Neg(_PSI))),
            ),
        ),
        AxiomSchema(
            "A8",
            ("a",),
            ("phi", "psi"),
            implies(
                and_(Neg(Modal(Modality.SE, _AGENT_A, _PHI)), Modal(Modality.SE, _AGENT_A, _PSI)),
                Neg(Modal(Modality.SA, _AGENT_A, and_(_PHI, Neg(_PSI)))),
            ),
        ),
        AxiomSchema(
            "A9",
            ("a", "b"),
            ("phi", "psi"),
            implies(
                and_(Neg(Modal(Modality.WA, _AGENT_A, _PHI)), Modal(Modality.SA, _AGENT_A, _PSI)),
                and_(
                    Neg(Modal(Modality.WA, _AGENT_B, and_(_PHI, _PSI))),
                    Modal(Modality.SA, _AGENT_B, and_(_PHI, _PSI)),
                ),
            ),
        ),
    )
}

# Theorems derivable in the system, kept as semantic validity fixtures for
# fuzzing alongside the axioms. Each is a schema instantiated the same way.
DERIVED_SCHEMAS: dict[str, AxiomSchema] = {
    schema.id: schema
    for schema in (
        AxiomSchema(
            "WE-refinement",
            ("a",),
            ("phi", "psi"),
            implies(
                and_(Modal(Modality.WE, _AGENT_A, _PHI), Neg(Modal(Modality.WA, _AGENT_A, _PSI))),
                Modal(Modality.WE, _AGENT_A, and_(_PHI, Neg(_PSI))),
            ),
        ),
        AxiomSchema(
            "SE-refinement",
            ("a",),
            ("phi", "psi"),
            implies(
                and_(Neg(Modal(Modality.SE, _AGENT_A, _PHI)), Modal(Modality.SA, _AGENT_A, _PSI)),
                Neg(Modal(Modality.SE, _AGENT_A, and_(_PHI, Neg(_PSI)))),
            ),
        ),
        AxiomSchema(
            "WA-transfer",
            ("a", "b"),
            ("phi",),
            implies(
                and_(Neg(Modal(Modality.WA, _AGENT_A, _PHI)), Modal(Modality.SA, _AGENT_A, TOP)),
                and_(Neg(Modal(Modality.WA, _AGENT_B, _PHI)), Modal(Modality.SA, _AGENT_B, _PHI)),
            ),
        ),
    )
}


def _substitute(
    template: Formula, agent_map: Mapping[str, str], formula_map: Mapping[Formula, Formula]
) -> Formula:
    out: dict[Formula, Formula] = {}
    for g in postorder(template, out):
        if isinstance(g, Prop):
            out[g] = formula_map.get(g, g)
        elif isinstance(g, Neg):
            out[g] = Neg(out[g.child])
        elif isinstance(g, Or):
            out[g] = Or(out[g.left], out[g.right])
        elif isinstance(g, Modal):
            out[g] = Modal(g.kind, agent_map.get(g.agent, g.agent), out[g.child])
        else:
            raise InputError(f"not a formula node: {g!r}")
    return out[template]


def instantiate_axiom(schema: AxiomSchema, bindings: Mapping[str, Any]) -> Formula:
    """Fill a schema's metavariables. Agent variables bind to agent names,
    formula variables to formulas (or concrete syntax to be parsed)."""
    agent_map: dict[str, str] = {}
    for var, marker in zip(schema.agent_vars, (_AGENT_A, _AGENT_B)):
        if var not in bindings:
            raise InputError(f"missing binding for agent variable {var!r} of {schema.id}")
        value = bindings[var]
        if not isinstance(value, str):
            raise InputError(f"agent variable {var!r} must bind to an agent name")
        agent_map[marker] = value
    formula_map: dict[Formula, Formula] = {}
    for var, marker in zip(schema.formula_vars, (_PHI, _PSI)):
        if var not in bindings:
            raise InputError(f"missing binding for formula variable {var!r} of {schema.id}")
        value = bindings[var]
        formula_map[marker] = parse(value) if isinstance(value, str) else value
    return _substitute(schema.template, agent_map, formula_map)


# --- semantic validity -----------------------------------------------------------


@dataclass(frozen=True)
class ValidityVerdict:
    valid: bool
    counterexample: str | None = None


def check_validity(m: TransitionSystem, f: Formula) -> ValidityVerdict:
    """Valid iff ``f`` holds at every state of ``m``; otherwise reports the
    first failing state in the model's state order."""
    ts = model_check(m, f)
    for s in m.states:
        if s not in ts:
            return ValidityVerdict(False, s)
    return ValidityVerdict(True)


# --- tautologies ------------------------------------------------------------------


def is_tautology(f: Formula, atom_cap: int = TAUTOLOGY_ATOM_CAP) -> bool:
    """Propositional tautology check treating maximal modal subformulas and
    propositions as atoms. Rejects formulas with more than ``atom_cap`` atoms.
    The walk does not enter modal atoms."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    for g in postorder(f, seen, leaves=Modal):
        seen.add(g)
        order.append(g)
    atoms = [g for g in order if isinstance(g, (Prop, Modal))]
    if len(atoms) > atom_cap:
        raise CapacityError(f"{len(atoms)} atoms exceed the truth-table cap of {atom_cap}")
    for values in product((False, True), repeat=len(atoms)):
        value = dict(zip(atoms, values))
        for g in order:
            if isinstance(g, Neg):
                value[g] = not value[g.child]
            elif isinstance(g, Or):
                value[g] = value[g.left] or value[g.right]
            elif not isinstance(g, (Prop, Modal)):
                raise InputError(f"not a formula node: {g!r}")
        if not value[f]:
            return False
    return True


# --- inference-rule shapes ---------------------------------------------------------


def _unfold_conj(f: Formula, n: int) -> list[Formula] | None:
    """Read ``f`` as a right-nested conjunction of exactly ``n`` parts."""
    if n == 0:
        return [] if f == TOP else None
    parts: list[Formula] = []
    node = f
    for _ in range(n - 1):
        pair = match_and(node)
        if pair is None:
            return None
        parts.append(pair[0])
        node = pair[1]
    parts.append(node)
    return parts


def _unfold_disj(f: Formula, n: int) -> list[Formula] | None:
    if n == 0:
        return [] if f == BOT else None
    parts: list[Formula] = []
    node = f
    for _ in range(n - 1):
        if not isinstance(node, Or) or node == TOP:
            return None
        parts.append(node.left)
        node = node.right
    parts.append(node)
    return parts


def check_monotone_shape(
    premise: Formula, conclusion: Formula, agent: str, kind: Modality
) -> str | None:
    """None when ``conclusion`` follows from the implication ``premise`` by
    ir2 (``kind`` WA: phi -> psi gives WA phi -> WA psi) or ir3 (``kind`` SA:
    it gives SA psi -> SA phi) for ``agent``; otherwise the reason it does not."""
    pair = match_implies(premise)
    if pair is None:
        return "premise is not an implication"
    phi, psi = pair if kind is Modality.WA else pair[::-1]
    expected = implies(Modal(kind, agent, phi), Modal(kind, agent, psi))
    if conclusion != expected:
        return f"conclusion is not {format_formula(expected)!r}"
    return None


def check_ir4_shape(
    premise: Formula,
    conclusion: Formula,
    we_agents: tuple[str, ...],
    se_agents: tuple[str, ...],
) -> str | None:
    all_agents = tuple(we_agents) + tuple(se_agents)
    if len(set(all_agents)) != len(all_agents):
        return "agents of the rule must be distinct"
    pair = match_implies(premise)
    if pair is None:
        return "premise is not an implication"
    antecedent, consequent = pair
    phis = _unfold_conj(antecedent, len(we_agents))
    if phis is None:
        return f"premise antecedent is not a conjunction of {len(we_agents)} parts"
    neg_psis = _unfold_disj(consequent, len(se_agents))
    if neg_psis is None:
        return f"premise consequent is not a disjunction of {len(se_agents)} parts"
    psis: list[Formula] = []
    for part in neg_psis:
        if not isinstance(part, Neg):
            return "premise consequent parts must be negations"
        psis.append(part.child)
    expected = implies(
        conj([Modal(Modality.WE, a, phi) for a, phi in zip(we_agents, phis)]),
        disj([Modal(Modality.SE, b, psi) for b, psi in zip(se_agents, psis)]),
    )
    if conclusion != expected:
        return f"conclusion is not {format_formula(expected)!r}"
    return None


@dataclass(frozen=True)
class RuleVerdict:
    valid: bool
    premise_valid: bool
    counterexample: str | None = None


def _chain_agents(node: Formula, kind: Modality, conjunctive: bool) -> tuple[str, ...] | None:
    """Agents of one side of an ir4 conclusion read as a right-nested chain of
    ``kind`` modal formulas joined by & (``conjunctive``) or |; greedy, which
    is unambiguous because chains nest to the right."""
    agents: list[str] = []
    while node != (TOP if conjunctive else BOT):
        if isinstance(node, Modal) and node.kind is kind:
            return (*agents, node.agent)
        if conjunctive:
            pair = match_and(node)
        else:
            pair = (node.left, node.right) if isinstance(node, Or) and node != TOP else None
        if pair is None or not (isinstance(pair[0], Modal) and pair[0].kind is kind):
            return None
        agents.append(pair[0].agent)
        node = pair[1]
    return tuple(agents)


def check_rule_locally(
    m: TransitionSystem, rule: str, premise: Formula, conclusion: Formula
) -> RuleVerdict:
    """Per-model soundness check of one rule application: when the premise is
    valid in ``m``, the conclusion must be too. The premise/conclusion pair
    must syntactically be an instance of the named rule."""
    rule = rule.lower()
    pair = match_implies(conclusion)
    if rule in ("ir2", "ir3"):
        if pair is None or not isinstance(pair[0], Modal):
            raise InputError("conclusion is not an implication from a modal formula")
        kind = Modality.WA if rule == "ir2" else Modality.SA
        reason = check_monotone_shape(premise, conclusion, pair[0].agent, kind)
    elif rule == "ir4":
        if pair is None:
            raise InputError("conclusion is not an implication")
        we_agents = _chain_agents(pair[0], Modality.WE, conjunctive=True)
        se_agents = _chain_agents(pair[1], Modality.SE, conjunctive=False)
        if we_agents is None or se_agents is None:
            raise InputError("conclusion does not have the WE.../SE... shape")
        reason = check_ir4_shape(premise, conclusion, we_agents, se_agents)
    else:
        raise InputError(f"unknown rule {rule!r}")
    if reason is not None:
        raise InputError(reason)

    premise_check = check_validity(m, premise)
    if not premise_check.valid:
        return RuleVerdict(valid=True, premise_valid=False)
    conclusion_check = check_validity(m, conclusion)
    return RuleVerdict(
        valid=conclusion_check.valid,
        premise_valid=True,
        counterexample=conclusion_check.counterexample,
    )


# --- derivations -----------------------------------------------------------------


@dataclass(frozen=True)
class JAxiom:
    axiom_id: str
    bindings: tuple[tuple[str, str], ...]  # variable -> agent name or formula text


@dataclass(frozen=True)
class JTaut:
    pass


@dataclass(frozen=True)
class JMP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class JIR2:
    premise: int
    agent: str


@dataclass(frozen=True)
class JIR3:
    premise: int
    agent: str


@dataclass(frozen=True)
class JIR4:
    premise: int
    we_agents: tuple[str, ...]
    se_agents: tuple[str, ...]


Justification = JAxiom | JTaut | JMP | JIR2 | JIR3 | JIR4


@dataclass(frozen=True)
class DerivationStep:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Derivation:
    steps: tuple[DerivationStep, ...]


@dataclass(frozen=True)
class DerivationVerdict:
    accepted: bool
    failed_step: int | None = None  # 1-based
    reason: str | None = None


def verify_derivation(d: Derivation) -> DerivationVerdict:
    """Accept iff every step reproduces exactly from its justification.

    Axiom steps must equal the instantiated schema; taut steps must pass the
    truth-table check; mp steps require the cited implication step to be
    literally ``antecedent -> current``; rule steps require the cited premise
    and the current formula to match the rule's shapes (including the
    distinct-agents side condition of ir4)."""

    def reject(k: int, reason: str) -> DerivationVerdict:
        return DerivationVerdict(False, k, reason)

    for k, step in enumerate(d.steps, start=1):
        j = step.justification
        refs = _references(j)
        for r in refs:
            if not 1 <= r < k:
                return reject(k, f"reference to step {r} is out of range")
        if isinstance(j, JAxiom):
            schema = AXIOMS.get(j.axiom_id)
            if schema is None:
                return reject(k, f"unknown axiom {j.axiom_id!r}")
            try:
                expected = instantiate_axiom(schema, dict(j.bindings))
            except InputError as exc:
                return reject(k, str(exc))
            if step.formula != expected:
                return reject(k, f"formula is not the {j.axiom_id} instance for these bindings")
        elif isinstance(j, JTaut):
            if not is_tautology(step.formula):
                return reject(k, "formula is not a propositional tautology")
        elif isinstance(j, JMP):
            antecedent = d.steps[j.antecedent - 1].formula
            implication = d.steps[j.implication - 1].formula
            if implication != implies(antecedent, step.formula):
                return reject(
                    k,
                    f"step {j.implication} is not literally step {j.antecedent} -> this formula",
                )
        elif isinstance(j, (JIR2, JIR3)):
            kind = Modality.WA if isinstance(j, JIR2) else Modality.SA
            reason = check_monotone_shape(
                d.steps[j.premise - 1].formula, step.formula, j.agent, kind
            )
            if reason is not None:
                return reject(k, reason)
        elif isinstance(j, JIR4):
            reason = check_ir4_shape(
                d.steps[j.premise - 1].formula, step.formula, j.we_agents, j.se_agents
            )
            if reason is not None:
                return reject(k, reason)
        else:
            return reject(k, f"unknown justification {j!r}")
    return DerivationVerdict(True)


def _references(j: Justification) -> tuple[int, ...]:
    if isinstance(j, JMP):
        return (j.antecedent, j.implication)
    if isinstance(j, (JIR2, JIR3, JIR4)):
        return (j.premise,)
    return ()


# --- JSON codec -------------------------------------------------------------------


def derivation_from_dict(data: Any) -> Derivation:
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
        kind, _, arg = by.partition(":")
        kind = kind.lower()
        if kind == "axiom":
            bind = raw.get("bind", {})
            if not isinstance(bind, dict):
                raise InputError(f"step {i}: 'bind' must be an object")
            steps.append(
                DerivationStep(f, JAxiom(arg, tuple(sorted((k, str(v)) for k, v in bind.items()))))
            )
        elif kind == "taut":
            steps.append(DerivationStep(f, JTaut()))
        elif kind == "mp":
            steps.append(DerivationStep(f, JMP(*_int_args(arg, 2, i))))
        elif kind in ("ir2", "ir3"):
            agent = raw.get("agent")
            if not isinstance(agent, str):
                raise InputError(f"step {i}: {kind} needs an 'agent' field")
            (ref,) = _int_args(arg, 1, i)
            steps.append(DerivationStep(f, (JIR2 if kind == "ir2" else JIR3)(ref, agent)))
        elif kind == "ir4":
            (ref,) = _int_args(arg, 1, i)
            we = raw.get("as", [])
            se = raw.get("bs", [])
            if not all(
                isinstance(names, list) and all(isinstance(x, str) for x in names)
                for names in (we, se)
            ):
                raise InputError(f"step {i}: 'as' and 'bs' must be lists of agent names")
            steps.append(DerivationStep(f, JIR4(ref, tuple(we), tuple(se))))
        else:
            raise InputError(f"step {i}: unknown justification kind {kind!r}")
    return Derivation(tuple(steps))


def _int_args(arg: str, n: int, step: int) -> tuple[int, ...]:
    parts = arg.split(",") if arg else []
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"step {step}: step references must be integers") from exc
    if len(values) != n:
        raise InputError(f"step {step}: expected {n} step reference(s)")
    return values


def derivation_to_dict(d: Derivation) -> dict[str, Any]:
    steps = []
    for step in d.steps:
        j = step.justification
        entry: dict[str, Any] = {"formula": format_formula(step.formula)}
        if isinstance(j, JAxiom):
            entry["by"] = f"axiom:{j.axiom_id}"
            entry["bind"] = dict(j.bindings)
        elif isinstance(j, JTaut):
            entry["by"] = "taut"
        elif isinstance(j, JMP):
            entry["by"] = f"mp:{j.antecedent},{j.implication}"
        elif isinstance(j, JIR2):
            entry["by"] = f"ir2:{j.premise}"
            entry["agent"] = j.agent
        elif isinstance(j, JIR3):
            entry["by"] = f"ir3:{j.premise}"
            entry["agent"] = j.agent
        elif isinstance(j, JIR4):
            entry["by"] = f"ir4:{j.premise}"
            entry["as"] = list(j.we_agents)
            entry["bs"] = list(j.se_agents)
        steps.append(entry)
    return {"steps": steps}
