"""Seeded random generation of valid transition systems and formulas.

Randomness comes from ``random.Random`` (the stdlib Mersenne Twister), whose
core draws are stable across platforms and supported Python versions, so a
(seed, params) pair pins the generated artifact exactly. Continuity is
enforced constructively: every profile is assigned its successors directly,
no rejection sampling.
"""

from __future__ import annotations

import random
import string
from itertools import product
from math import prod
from typing import Callable, Iterable, Mapping

from .errors import CapacityError, InputError
from .formula import BOT, TOP, Formula, Modal, Modality, Neg, Or, Prop
from .model import TransitionSystem, make_model, profile_cap
from .record import Record


class GenParams(Record):
    __slots__ = ("seed", "num_agents", "num_states", "max_actions", "num_props",
                 "permitted_density", "branching")
    seed: int
    num_agents: int
    num_states: int
    max_actions: int
    num_props: int
    permitted_density: float
    branching: int

    def __init__(
        self,
        seed: int,
        num_agents: int = 2,
        num_states: int = 3,
        max_actions: int = 2,
        num_props: int = 1,
        permitted_density: float = 1.0,
        branching: int = 1,
    ) -> None:
        if min(num_agents, num_states, max_actions, num_props) < 1:
            raise InputError("generator counts must be at least 1")
        if not 0 < permitted_density <= 1:
            raise InputError("permitted_density must lie in (0, 1]")
        if branching < 1:
            raise InputError("branching must be at least 1")
        (set_seed, set_agents, set_states, set_actions, set_props, set_density,
         set_branching) = self._setters
        set_seed(self, seed)
        set_agents(self, num_agents)
        set_states(self, num_states)
        set_actions(self, max_actions)
        set_props(self, num_props)
        set_density(self, permitted_density)
        set_branching(self, branching)


def agent_names(count: int) -> list[str]:
    letters = string.ascii_lowercase
    return [letters[i] if i < len(letters) else f"a{i}" for i in range(count)]


def draw_model(
    rng: random.Random,
    num_states: int,
    num_agents: int,
    max_actions: int,
    permit: Callable[[list[str]], list[str]],
    branching: int,
    valuation: Callable[[list[str]], Mapping[str, Iterable[str]]],
) -> TransitionSystem:
    """Draw a valid model from ``rng``: the tables of ``random_model`` and of
    the witness candidates. Each (state, agent) gets actions "1".."k", k up
    to ``max_actions``, of which ``permit`` picks the permitted ones; each
    profile gets one successor, or 1 up to ``branching``; ``valuation`` is
    drawn last. A model over ``PERMITMC_PROFILE_CAP`` profiles raises
    CapacityError before any profile is built, by a check that draws nothing."""
    states = [f"s{i}" for i in range(num_states)]
    agents = agent_names(num_agents)
    actions: dict[str, dict[str, list[str]]] = {}
    permitted: dict[str, dict[str, list[str]]] = {}
    for s in states:
        actions[s] = {}
        permitted[s] = {}
        for a in agents:
            count = rng.randint(1, max_actions)
            acts = [str(i + 1) for i in range(count)]
            actions[s][a] = acts
            permitted[s][a] = permit(acts)
    total = sum(prod(len(acts) for acts in row.values()) for row in actions.values())
    cap = profile_cap()
    if total > cap:
        raise CapacityError(f"requested model needs {total} profiles, over the cap of {cap}")

    transitions: list[tuple[str, dict[str, str], str]] = []
    for s in states:
        for combo in product(*(actions[s][a] for a in agents)):
            profile = dict(zip(agents, combo))
            k = 1 if branching == 1 else rng.randint(1, min(branching, num_states))
            for target in rng.sample(states, k):
                transitions.append((s, profile, target))
    return make_model(agents, states, actions, permitted, transitions, valuation(states))


def random_model(params: GenParams) -> TransitionSystem:
    """Generate a model that always passes validation. Identical params and
    seed give a structurally identical model. A model with more profiles
    than ``PERMITMC_PROFILE_CAP`` allows raises CapacityError."""
    rng = random.Random(params.seed)

    def permit(acts: list[str]) -> list[str]:
        chosen = [i for i in acts if rng.random() < params.permitted_density]
        return chosen or [rng.choice(acts)]

    def valuation(states: list[str]) -> dict[str, list[str]]:
        return {f"p{i}": [s for s in states if rng.random() < 0.5] for i in range(params.num_props)}

    return draw_model(rng, params.num_states, params.num_agents, params.max_actions, permit,
                      params.branching, valuation)


def replicate_model(m: TransitionSystem, copies: int) -> TransitionSystem:
    """Disjoint union of renamed copies of ``m``; every size measure scales by
    exactly ``copies``. Used by the scaling experiments."""
    if copies < 1:
        raise InputError("copies must be at least 1")

    def rename(state: str, i: int) -> str:
        return f"{state}~{i}"

    states = [rename(s, i) for i in range(copies) for s in m.states]
    actions = {
        rename(s, i): {a: list(m.action_set(s, a)) for a in m.agents}
        for i in range(copies)
        for s in m.states
    }
    permitted = {
        rename(s, i): {a: sorted(m.permitted_set(s, a)) for a in m.agents}
        for i in range(copies)
        for s in m.states
    }
    transitions = [
        (rename(s, i), dict(profile), rename(target, i))
        for i in range(copies)
        for s in m.states
        for profile, target in m.entries(s)
    ]
    valuation = {
        p: [rename(s, i) for i in range(copies) for s in held]
        for p, held in m.valuation.items()
    }
    return make_model(m.agents, states, actions, permitted, transitions, valuation)


_PRODUCTIONS = ("prop", "const", "neg", "or", "wa", "we", "se", "sa")


def random_formula(
    seed: int,
    max_depth: int,
    agents: list[str] | tuple[str, ...],
    props: list[str] | tuple[str, ...],
) -> Formula:
    """Seed-deterministic random formula of tree depth <= max_depth. Every
    production (propositions, constants, negation, disjunction, and all four
    modalities) is reachable with positive probability at depth >= 1."""
    if max_depth < 0:
        raise InputError("max_depth must be nonnegative")
    if not agents or not props:
        raise InputError("need at least one agent and one proposition")
    rng = random.Random(seed)
    return _gen(rng, max_depth, tuple(agents), tuple(props))


def _gen(rng: random.Random, depth: int, agents: tuple[str, ...], props: tuple[str, ...]) -> Formula:
    if depth == 0:
        if rng.random() < 0.2:
            return TOP if rng.random() < 0.5 else BOT
        return Prop(rng.choice(props))
    production = rng.choice(_PRODUCTIONS)
    if production == "prop":
        return Prop(rng.choice(props))
    if production == "const":
        return TOP if rng.random() < 0.5 else BOT
    if production == "neg":
        return Neg(_gen(rng, depth - 1, agents, props))
    if production == "or":
        return Or(_gen(rng, depth - 1, agents, props), _gen(rng, depth - 1, agents, props))
    kind = Modality[production.upper()]
    return Modal(kind, rng.choice(agents), _gen(rng, depth - 1, agents, props))
