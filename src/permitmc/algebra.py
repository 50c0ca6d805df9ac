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
from itertools import combinations
from typing import Any, Iterable, Iterator

from .checker import modal_image, model_check
from .errors import InputError
from .formula import Modal, Modality, Prop, format_formula
from .model import TransitionSystem, proposition_name_fault, within_states
from .record import Record

# A family of pairwise distinct truth sets, in canonical order: by their
# sorted members.
Family = tuple[frozenset[str], ...]


def family_of(model: TransitionSystem, sets: Iterable[Iterable[str]]) -> Family:
    """The distinct ``sets``, in canonical order; a set with a member outside
    the states is refused by ``model.within_states`` (InputError)."""
    distinct = {within_states(model, frozenset(s)) for s in sets}
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


def _set_text(ts: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(ts)) + "}"


def _closure_failures(
    m: TransitionSystem, family: Family, modalities: Iterable[Modality]
) -> Iterator[str]:
    """The lines of ``verify_closure``, one at a time, so that a caller who
    needs only the first stops computing images there."""
    for member in family:
        image = m.state_set - member
        if image not in family:
            yield f"complement of {_set_text(member)} is {_set_text(image)}, outside the family"
    for x, y in combinations(family, 2):
        image = x | y
        if image not in family:
            yield (
                f"union of {_set_text(x)} and {_set_text(y)} is {_set_text(image)}, "
                "outside the family"
            )
    for modality in modalities:
        for agent in m.agents:
            for member, image in closure_step(m, family, modality, agent).items():
                if image not in family:
                    yield (
                        f"{modality}[{agent}] maps {_set_text(member)} to {_set_text(image)}, "
                        "outside the family"
                    )


def verify_closure(
    m: TransitionSystem, family: Family, modalities: Iterable[Modality]
) -> list[str]:
    """Check the family is closed under complement, pairwise union, and each
    (modality, agent) image over the model's agents. Returns one line per
    image outside the family, complements first, then unions, then modal
    images; an empty list means the family is closed."""
    return list(_closure_failures(m, family, modalities))


def _witness_setup(m: TransitionSystem, prop: str) -> tuple[Family, frozenset[str], str]:
    """The default family of ``prop``, its truth set p, read from the
    valuation as the checker would once these refusals pass, and the escape
    agent, the model's first. Refuses a model with no agents and a
    proposition that no formula can refer to."""
    if not m.agents:
        raise InputError("a witness needs an agent for its escape formula; the model has none")
    fault = proposition_name_fault(prop)
    if fault is not None:
        code, text = fault
        raise InputError(f"a witness needs a proposition that formulas refer to; {text} ({code})")
    p = m.valuation.get(prop, frozenset())
    return family_of(m, [p, m.state_set - p, m.states, ()]), p, m.agents[0]


def _is_witness(m: TransitionSystem, target: Modality, prop: str) -> bool:
    """Whether ``verify_witness`` reports ``ok`` with its default closed
    modalities, decided at the first failing check: the escape image first,
    one ``modal_image`` scan of p and no checker, then the closure failures
    one at a time."""
    family, p, agent = _witness_setup(m, prop)
    if modal_image(m, target, agent, p) in family:
        return False
    others = (mod for mod in Modality if mod is not target)
    return next(_closure_failures(m, family, others), None) is None


def verify_witness(
    m: TransitionSystem,
    target: Modality,
    prop: str,
    closed_modalities: Iterable[Modality] | None = None,
) -> dict[str, Any]:
    """Check a model witnesses the undefinability of ``target``: the default
    family of ``prop`` is closed under the other modalities (default: the
    remaining three) for all agents, while ``target[agent] prop``, for the
    model's first agent, produces a truth set outside it: one ``modal_image``
    scan of the valuation's p, and no checker. Returns the report as the
    JSON object ``witness`` prints, whose ``closed_under`` is empty unless
    the family is closed and ``failures`` empty exactly when ``ok``.
    ``prop`` must be a name a formula can write, and not ``__top``
    (``InputError`` otherwise)."""
    family, p, agent = _witness_setup(m, prop)
    others = (mod for mod in Modality if mod is not target)
    closed = tuple(others if closed_modalities is None else closed_modalities)
    failures = verify_closure(m, family, closed)
    closed_under = [] if failures else [[mod.value, a] for mod in closed for a in m.agents]

    escape_formula = format_formula(Modal(target, agent, Prop(prop)))
    escape_set = modal_image(m, target, agent, p)
    if escape_set in family:
        failures.append(
            f"{escape_formula} has truth set {_set_text(escape_set)}, "
            "which stays in the family"
        )

    return {
        "ok": not failures,
        "target": target.value,
        "prop": prop,
        "agent": agent,
        "family": [sorted(ts) for ts in family],
        "closed_under": closed_under,
        "escape": {"formula": escape_formula, "states": sorted(escape_set)},
        "failures": failures,
    }


# --- witness search --------------------------------------------------------------

# Successors per (state, profile) of a candidate are drawn from 1 up to this.
MAX_BRANCHING = 2


class SearchBounds(Record):
    __slots__ = ("max_states", "num_agents", "max_actions", "allow_nonpermitted",
                 "max_candidates")
    max_states: int
    num_agents: int
    max_actions: int
    allow_nonpermitted: bool
    max_candidates: int

    def __init__(
        self,
        max_states: int = 3,
        num_agents: int = 2,
        max_actions: int = 3,
        allow_nonpermitted: bool = True,
        max_candidates: int = 50_000,
    ) -> None:
        if min(max_states, num_agents, max_actions, max_candidates) < 1:
            raise InputError("search bounds must be at least 1")
        if max_states < 3:
            raise InputError(f"witness search needs at least 3 states, got {max_states}: on "
                             "fewer, the family of p, !p, true and false is the whole powerset")
        set_states, set_agents, set_actions, set_nonpermitted, set_candidates = self._setters
        set_states(self, max_states)
        set_agents(self, num_agents)
        set_actions(self, max_actions)
        set_nonpermitted(self, allow_nonpermitted)
        set_candidates(self, max_candidates)


class SearchResult(Record):
    __slots__ = ("candidates", "model", "report")
    candidates: int
    model: TransitionSystem | None
    report: dict[str, Any] | None  # verify_witness's report on the model

    def __init__(
        self,
        candidates: int,
        model: TransitionSystem | None = None,
        report: dict[str, Any] | None = None,
    ) -> None:
        set_candidates, set_model, set_report = self._setters
        set_candidates(self, candidates)
        set_model(self, model)
        set_report(self, report)

    @property
    def found(self) -> bool:
        return self.model is not None


def _random_candidate(rng: random.Random, bounds: SearchBounds) -> TransitionSystem:
    # Imported here, so that verifying a given witness never runs the generator.
    from .generate import draw_model

    # SearchBounds admits no fewer than three states; sample from three up.
    n_states = 3 if bounds.max_states == 3 else rng.randint(3, bounds.max_states)

    def permit(acts: list[str]) -> list[str]:
        if bounds.allow_nonpermitted and len(acts) > 1 and rng.random() < 0.8:
            keep = rng.randint(1, len(acts) - 1)
            return sorted(rng.sample(acts, keep))
        return acts

    def valuation(states: list[str]) -> dict[str, list[str]]:
        # A proposition with a nonempty proper truth set keeps the family at
        # the full four members, where escapes are actually possible.
        cut = rng.randint(1, n_states - 1)
        return {"p": rng.sample(states, cut)}

    return draw_model(rng, n_states, bounds.num_agents, bounds.max_actions, permit, MAX_BRANCHING,
                      valuation)


def search_witness(
    target: Modality,
    bounds: SearchBounds | None = None,
    seed: int = 0,
) -> SearchResult:
    """Sample candidate models within bounds (deterministically from the seed)
    until one passes verify_witness for the target over the default family.
    Each candidate is rejected at its first failing check, the escape image
    before the closure, and only the accepted one gets ``verify_witness``'s
    report. Returns a result with ``found`` false if the candidate budget
    runs out. A candidate with more profiles than ``PERMITMC_PROFILE_CAP``
    allows raises CapacityError before any of its profiles is built."""
    bounds = bounds if bounds is not None else SearchBounds()
    rng = random.Random(seed)
    for k in range(1, bounds.max_candidates + 1):
        candidate = _random_candidate(rng, bounds)
        if _is_witness(candidate, target, "p"):
            return SearchResult(k, candidate, verify_witness(candidate, target, "p"))
    return SearchResult(bounds.max_candidates)
