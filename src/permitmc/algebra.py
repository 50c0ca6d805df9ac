"""Truth-set algebra: closure checking and undefinability witness search.

A witness for the non-definability of one modality consists of a model and a
small family of truth sets (typically the truth sets of p, !p, true, false)
such that applying any of the *other* modalities, complement, or union to
family members never leaves the family, while the target modality applied to
p lands outside it. Induction over formula structure then keeps every
target-free formula inside the family, so no such formula can share a truth
set with the escaping one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Any, Iterable, Sequence

from .checker import modal_image, model_check
from .errors import InputError
from .formula import Formula, Modal, Modality, Neg, Or, Prop, format_formula
from .model import TransitionSystem, make_model

# A family of pairwise distinct truth sets, in canonical order: by their
# sorted members.
Family = tuple[frozenset[str], ...]


def family_of(model: TransitionSystem, sets: Iterable[Iterable[str]]) -> Family:
    distinct: set[frozenset[str]] = set()
    for s in sets:
        members = frozenset(s)
        if not members <= model.state_set:
            extra = sorted(members - model.state_set)
            raise InputError(f"truth set members outside the state universe: {extra}")
        distinct.add(members)
    return tuple(sorted(distinct, key=sorted))


def default_family(model: TransitionSystem, prop: str) -> Family:
    """The family {truth(p), truth(!p), all states, no states}."""
    p = model_check(model, Prop(prop))
    return family_of(model, [p, model.state_set - p, model.states, ()])


def closure_step(
    m: TransitionSystem, family: Family, modality: Modality, agent: str
) -> dict[frozenset[str], frozenset[str]]:
    """Image of every family member under one modality/agent pair."""
    return {member: modal_image(m, modality, agent, member) for member in family}


@dataclass(frozen=True)
class ClosureViolation:
    kind: str  # "complement" | "union" | "modality"
    image: frozenset[str]
    sources: tuple[frozenset[str], ...]
    modality: Modality | None = None
    agent: str | None = None

    def describe(self) -> str:
        srcs = " and ".join("{" + ", ".join(sorted(s)) + "}" for s in self.sources)
        img = "{" + ", ".join(sorted(self.image)) + "}"
        if self.kind == "modality":
            return f"{self.modality}[{self.agent}] maps {srcs} to {img}, outside the family"
        return f"{self.kind} of {srcs} is {img}, outside the family"


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    violations: tuple[ClosureViolation, ...]


def verify_closure(
    m: TransitionSystem,
    family: Family,
    modalities: Iterable[Modality],
    agents: Iterable[str] | None = None,
) -> ClosureReport:
    """Check the family is closed under complement, pairwise union, and each
    (modality, agent) image."""
    agents = tuple(agents) if agents is not None else m.agents
    violations: list[ClosureViolation] = []
    for member in family:
        image = m.state_set - member
        if image not in family:
            violations.append(ClosureViolation("complement", image, (member,)))
    for x, y in combinations(family, 2):
        image = x | y
        if image not in family:
            violations.append(ClosureViolation("union", image, (x, y)))
    for modality in modalities:
        for agent in agents:
            for member in family:
                image = modal_image(m, modality, agent, member)
                if image not in family:
                    violations.append(
                        ClosureViolation("modality", image, (member,), modality, agent)
                    )
    return ClosureReport(not violations, tuple(violations))


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    target: Modality
    proposition: str
    agent: str
    family: Family
    closed_under: tuple[tuple[Modality, str], ...]
    escape_formula: Formula
    escape_set: frozenset[str]
    failures: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "target": self.target.value,
            "prop": self.proposition,
            "agent": self.agent,
            "family": [sorted(ts) for ts in self.family],
            "closed_under": [[mod.value, agent] for mod, agent in self.closed_under],
            "escape": {
                "formula": format_formula(self.escape_formula),
                "states": sorted(self.escape_set),
            },
            "failures": list(self.failures),
        }


def verify_witness(
    m: TransitionSystem,
    target: Modality,
    prop: str,
    family: Family | None = None,
    closed_modalities: Iterable[Modality] | None = None,
    agents: Iterable[str] | None = None,
    escape_agent: str | None = None,
) -> WitnessReport:
    """Check a model witnesses the undefinability of ``target``: the family is
    closed under the other modalities (default: the remaining three) for all
    agents, while ``target[agent] prop`` produces a truth set outside it."""
    if family is None:
        family = default_family(m, prop)
    closed = (
        tuple(closed_modalities)
        if closed_modalities is not None
        else tuple(mod for mod in Modality if mod is not target)
    )
    agents = tuple(agents) if agents is not None else m.agents
    escape_agent = escape_agent if escape_agent is not None else agents[0]

    failures: list[str] = []
    closure = verify_closure(m, family, closed, agents)
    failures.extend(v.describe() for v in closure.violations)

    escape_formula = Modal(target, escape_agent, Prop(prop))
    escape_set = model_check(m, escape_formula)
    if escape_set in family:
        failures.append(
            f"{format_formula(escape_formula)} has truth set "
            f"{{{', '.join(sorted(escape_set))}}}, which stays in the family"
        )

    closed_under = tuple((mod, agent) for mod in closed for agent in agents)
    return WitnessReport(
        ok=not failures,
        target=target,
        proposition=prop,
        agent=escape_agent,
        family=family,
        closed_under=closed_under if closure.closed else (),
        escape_formula=escape_formula,
        escape_set=escape_set,
        failures=tuple(failures),
    )


def enumerate_formulas(
    max_depth: int,
    modalities: Sequence[Modality],
    agents: Sequence[str],
    base: Sequence[Formula],
) -> list[Formula]:
    """All structurally distinct formulas of tree height <= max_depth built
    from the base formulas with negation, disjunction, and the given
    modality/agent pairs. Grows fast; meant for depth <= 3 sweeps."""
    levels: list[list[Formula]] = [list(base)]
    for _ in range(max_depth):
        prev = levels[-1]
        nxt: list[Formula] = list(base)
        nxt.extend(Neg(f) for f in prev)
        nxt.extend(Or(l, r) for l in prev for r in prev)
        nxt.extend(
            Modal(mod, agent, f) for mod in modalities for agent in agents for f in prev
        )
        levels.append(nxt)
    seen: set[Formula] = set()
    out: list[Formula] = []
    for f in levels[-1]:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


# --- witness search --------------------------------------------------------------


@dataclass(frozen=True)
class SearchBounds:
    max_states: int = 3
    num_agents: int = 2
    max_actions: int = 2
    max_branching: int = 2
    allow_nonpermitted: bool = True
    max_candidates: int = 50_000

    def __post_init__(self) -> None:
        if min(self.max_states, self.num_agents, self.max_actions,
               self.max_branching, self.max_candidates) < 1:
            raise InputError("search bounds must be at least 1")


@dataclass(frozen=True)
class SearchResult:
    found: bool
    exhausted: bool
    candidates: int
    seed: int
    model: TransitionSystem | None = None
    report: WitnessReport | None = None


def _random_candidate(rng: random.Random, bounds: SearchBounds) -> TransitionSystem:
    # Imported here, so that verifying a given witness never runs the generator.
    from .generate import agent_names

    # Escapes need the powerset to outgrow the four-member family, so fewer
    # than three states can never witness; sample from three up when allowed.
    if bounds.max_states <= 3:
        n_states = bounds.max_states
    else:
        n_states = rng.randint(3, bounds.max_states)
    states = [f"s{i}" for i in range(n_states)]
    agents = agent_names(bounds.num_agents)
    actions: dict[str, dict[str, list[str]]] = {}
    permitted: dict[str, dict[str, list[str]]] = {}
    for s in states:
        actions[s] = {}
        permitted[s] = {}
        for a in agents:
            count = rng.randint(1, bounds.max_actions)
            acts = [str(i + 1) for i in range(count)]
            actions[s][a] = acts
            if bounds.allow_nonpermitted and count > 1 and rng.random() < 0.8:
                keep = rng.randint(1, count - 1)
                permitted[s][a] = sorted(rng.sample(acts, keep))
            else:
                permitted[s][a] = list(acts)
    transitions: list[tuple[str, dict[str, str], str]] = []
    for s in states:
        for combo in product(*(actions[s][a] for a in agents)):
            profile = dict(zip(agents, combo))
            k = rng.randint(1, min(bounds.max_branching, n_states))
            for target in rng.sample(states, k):
                transitions.append((s, profile, target))
    # A proposition with a nonempty proper truth set keeps the family at the
    # full four members, where escapes are actually possible.
    cut = rng.randint(1, n_states - 1) if n_states >= 2 else 1
    marked = rng.sample(states, cut)
    return make_model(agents, states, actions, permitted, transitions, {"p": marked})


def search_witness(
    target: Modality,
    bounds: SearchBounds | None = None,
    seed: int = 0,
) -> SearchResult:
    """Sample candidate models within bounds (deterministically from the seed)
    until one passes verify_witness for the target over the default family.
    Returns an exhausted result if the candidate budget runs out."""
    bounds = bounds if bounds is not None else SearchBounds()
    rng = random.Random(seed)
    for k in range(1, bounds.max_candidates + 1):
        candidate = _random_candidate(rng, bounds)
        report = verify_witness(candidate, target, "p")
        if report.ok:
            return SearchResult(True, False, k, seed, candidate, report)
    return SearchResult(False, True, bounds.max_candidates, seed)
