"""Reduction to a next-step coalition logic over a concurrent game structure.

Each source state s expands into one game state per subset of agents; the
subset records which agents reached the state by a permitted action, and a
fresh atom d_<agent> holds exactly at states whose subset contains the agent.
Game moves at an expanded state are the source actions (plus moves of a
bookkeeping Nature agent that picks among multiple successors of a profile,
so the game transition function is deterministic). The four permission
modalities translate into coalition-next formulas:

    WA[a] f  ->  <<all agents>> X (d_a & f)
    WE[a] f  ->  <<a>> X (d_a & f)
    SE[a] f  ->  !<<a>> X !(f -> d_a)
    SA[a] f  ->  !<<all agents>> X !(f -> d_a)

where "all agents" includes Nature whenever it exists. Translated formulas
are core formula nodes (Prop, Neg, Or; conjunction and implication desugar as
in the source language) plus the two game nodes ADeontic (the atom d_a) and
ANext (coalition next). verify_translation checks the translation agrees with
direct model checking at every expanded state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Mapping

from .checker import model_check
from .errors import CapacityError, InputError
from .formula import (
    TOP_PROP,
    Formula,
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    and_,
    cache_hash,
    implies,
    modal_depth,
)
from .model import TransitionSystem

NATURE = "__nature"

DEFAULT_AGENT_CAP = 6


@dataclass(frozen=True)
class AtlState:
    base: str
    allowed: frozenset[str]  # agents whose incoming action was permitted


# --- game formula nodes ------------------------------------------------------------


@cache_hash
@dataclass(frozen=True, slots=True)
class ADeontic(Formula):
    """The atom d_<agent>; never equal to a source Prop, whatever its name."""

    agent: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("ADeontic", self.agent)))


@cache_hash
@dataclass(frozen=True, slots=True)
class ANext(Formula):
    coalition: frozenset[str]
    child: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("ANext", self.coalition, self.child._hash)))


# --- model expansion ---------------------------------------------------------------


@dataclass(frozen=True)
class AtlModel:
    source: TransitionSystem
    agents: tuple[str, ...]  # source agents, without Nature
    has_nature: bool
    states: tuple[AtlState, ...]
    # base state -> player -> available moves (actions, or successor indices
    # for Nature)
    moves: Mapping[str, Mapping[str, tuple[str, ...]]]
    # base state -> profile key -> successors sorted by state order
    profile_successors: Mapping[str, Mapping[tuple[str, ...], tuple[str, ...]]]

    @property
    def players(self) -> tuple[str, ...]:
        return self.agents + ((NATURE,) if self.has_nature else ())

    def grand_coalition(self) -> frozenset[str]:
        return frozenset(self.players)

    def transition(self, base: str, move_vector: Mapping[str, str]) -> AtlState:
        """Unique successor state under a total move vector."""
        profile = tuple(move_vector[a] for a in self.agents)
        targets = self.profile_successors[base].get(profile)
        if targets is None:
            raise InputError(f"move vector {dict(move_vector)} is not available at {base!r}")
        if self.has_nature:
            pick = int(move_vector[NATURE]) % len(targets)
        else:
            pick = 0
        allowed = frozenset(
            a
            for a in self.agents
            if move_vector[a] in self.source.permitted_set(base, a)
        )
        return AtlState(targets[pick], allowed)

    def holds_prop(self, state: AtlState, name: str) -> bool:
        if name == TOP_PROP:
            return True
        return state.base in self.source.valuation.get(name, frozenset())


def expand_model(m: TransitionSystem, max_agents: int = DEFAULT_AGENT_CAP) -> AtlModel:
    """Expand a transition system into the deterministic game structure.

    Produces 2^|agents| expanded states per source state, so the agent count
    is capped. Nature joins only when some profile has several successors;
    its moves at a state index successor choices (out-of-range moves wrap)."""
    if len(m.agents) > max_agents:
        raise CapacityError(f"{len(m.agents)} agents exceed the expansion cap of {max_agents}")

    state_order = {s: i for i, s in enumerate(m.states)}
    profile_successors: dict[str, dict[tuple[str, ...], tuple[str, ...]]] = {}
    max_multiplicity: dict[str, int] = {}
    for s in m.states:
        table: dict[tuple[str, ...], list[str]] = {}
        for profile, target in m.entries(s):
            key = tuple(profile[a] for a in m.agents)
            bucket = table.setdefault(key, [])
            if target not in bucket:
                bucket.append(target)
        profile_successors[s] = {
            key: tuple(sorted(targets, key=state_order.__getitem__))
            for key, targets in table.items()
        }
        max_multiplicity[s] = max(
            (len(ts) for ts in profile_successors[s].values()), default=1
        )

    has_nature = any(mult > 1 for mult in max_multiplicity.values())

    moves: dict[str, dict[str, tuple[str, ...]]] = {}
    for s in m.states:
        per_player = {a: tuple(m.action_set(s, a)) for a in m.agents}
        if has_nature:
            per_player[NATURE] = tuple(str(i) for i in range(max_multiplicity[s]))
        moves[s] = per_player

    subsets: list[frozenset[str]] = []
    for mask in range(1 << len(m.agents)):
        subsets.append(frozenset(a for i, a in enumerate(m.agents) if mask >> i & 1))
    states = tuple(AtlState(s, subset) for s in m.states for subset in subsets)

    return AtlModel(
        source=m,
        agents=tuple(m.agents),
        has_nature=has_nature,
        states=states,
        moves=moves,
        profile_successors=profile_successors,
    )


# --- translation -------------------------------------------------------------------


def translate_formula(f: Formula, am: AtlModel) -> Formula:
    """Structurally translate a permission formula for evaluation on ``am``."""
    grand = am.grand_coalition()

    def go(g: Formula) -> Formula:
        if isinstance(g, Prop):
            return g
        if isinstance(g, Neg):
            return Neg(go(g.child))
        if isinstance(g, Or):
            return Or(go(g.left), go(g.right))
        if isinstance(g, Modal):
            body = go(g.child)
            d = ADeontic(g.agent)
            if g.kind is Modality.WA:
                return ANext(grand, and_(d, body))
            if g.kind is Modality.WE:
                return ANext(frozenset({g.agent}), and_(d, body))
            if g.kind is Modality.SE:
                return Neg(ANext(frozenset({g.agent}), Neg(implies(body, d))))
            return Neg(ANext(grand, Neg(implies(body, d))))
        raise InputError(f"not a formula node: {g!r}")

    return go(f)


# --- evaluation --------------------------------------------------------------------


def eval_atl(
    am: AtlModel,
    state: AtlState,
    f: Formula,
    _memo: dict[tuple[AtlState, Formula], bool] | None = None,
) -> bool:
    """Evaluate a next-step formula: a coalition can force its body when some
    joint move of the coalition makes the body hold for every completion by
    the remaining players."""
    memo = _memo if _memo is not None else {}
    key = (state, f)
    cached = memo.get(key)
    if cached is not None:
        return cached

    if isinstance(f, Prop):
        result = am.holds_prop(state, f.name)
    elif isinstance(f, ADeontic):
        result = f.agent in state.allowed
    elif isinstance(f, Neg):
        result = not eval_atl(am, state, f.child, memo)
    elif isinstance(f, Or):
        result = eval_atl(am, state, f.left, memo) or eval_atl(am, state, f.right, memo)
    elif isinstance(f, ANext):
        players = am.players
        unknown = f.coalition - set(players)
        if unknown:
            raise InputError(f"coalition mentions unknown players {sorted(unknown)}")
        movers = [p for p in players if p in f.coalition]
        others = [p for p in players if p not in f.coalition]
        base_moves = am.moves[state.base]
        result = False
        for own in product(*(base_moves[p] for p in movers)):
            fixed = dict(zip(movers, own))
            if all(
                eval_atl(am, am.transition(state.base, {**fixed, **dict(zip(others, rest))}), f.child, memo)
                for rest in product(*(base_moves[p] for p in others))
            ):
                result = True
                break
    else:
        raise InputError(f"not a next-step formula node: {f!r}")

    memo[key] = result
    return result


# --- equivalence check -------------------------------------------------------------


@dataclass(frozen=True)
class TranslationVerdict:
    ok: bool
    checked: int
    mismatch_state: AtlState | None = None
    expected: bool | None = None


def verify_translation(
    m: TransitionSystem,
    f: Formula,
    max_modal_depth: int = 2,
    max_agents: int = DEFAULT_AGENT_CAP,
) -> TranslationVerdict:
    """Check that evaluating the translated formula at every expanded state
    <s, D> agrees with membership of s in the directly computed truth set
    (which also establishes that the D component is irrelevant)."""
    if modal_depth(f) > max_modal_depth:
        raise InputError(
            f"modal depth {modal_depth(f)} exceeds the configured bound {max_modal_depth}"
        )
    expected = model_check(m, f)
    am = expand_model(m, max_agents)
    translated = translate_formula(f, am)
    memo: dict[tuple[AtlState, Formula], bool] = {}
    checked = 0
    for st in am.states:
        want = st.base in expected
        got = eval_atl(am, st, translated, memo)
        checked += 1
        if got != want:
            return TranslationVerdict(False, checked, st, want)
    return TranslationVerdict(True, checked)


# --- JSON export -------------------------------------------------------------------


def atl_model_to_dict(am: AtlModel) -> dict[str, Any]:
    """Serializable form of the expanded game structure. Transitions are
    listed per base state because they do not depend on the source state's
    subset tag."""
    entries = []
    for s in am.source.states:
        base_moves = am.moves[s]
        for vector in product(*(base_moves[p] for p in am.players)):
            move_map = dict(zip(am.players, vector))
            succ = am.transition(s, move_map)
            entries.append(
                {
                    "base": s,
                    "moves": move_map,
                    "to": {"base": succ.base, "allowed": sorted(succ.allowed)},
                }
            )
    return {
        "schema": "permitmc.atl/v1",
        "agents": list(am.agents),
        "nature": NATURE if am.has_nature else None,
        "states": [
            {"base": st.base, "allowed": sorted(st.allowed)} for st in am.states
        ],
        "moves": {s: {p: list(ms) for p, ms in am.moves[s].items()} for s in am.source.states},
        "transitions": entries,
        "valuation": {
            p: sorted(states) for p, states in sorted(am.source.valuation.items())
        },
        "deontic_atoms": {
            a: f"d_{a} holds at expanded states whose allowed set contains {a!r}"
            for a in am.agents
        },
    }
