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

expand_model computes each successor once: per base state it keeps one row
per total move vector, holding the index of the successor game state.
translate_formula and eval_atl are each one ``formula.fold``, so neither
recurses. eval_atl labels the game globally: each distinct subformula gets
the set of game-state indices where it holds, children first. Propositions
and d_a are index sets, negation and disjunction are set operations, and
<<C>> X f is a pre-image computed per base state, holding at all its copies
or at none.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter, or_
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
    _ABSENT,
    _bad_arguments,
    _intern,
    _new,
    _nodes,
    _set_children,
    and_,
    fold,
    implies,
)
from .model import NATURE, TransitionSystem
from .record import Record

AGENT_CAP = 6


class AtlState(Record):
    __slots__ = ("base", "allowed")
    base: str
    allowed: frozenset[str]  # agents whose incoming action was permitted

    def __init__(self, base: str, allowed: frozenset[str]) -> None:
        set_base, set_allowed = self._setters
        set_base(self, base)
        set_allowed(self, allowed)


# --- game formula nodes ------------------------------------------------------------


class ADeontic(Formula):
    """The atom d_<agent>; never equal to a source Prop, whatever its name."""

    __slots__ = ("agent",)
    agent: str
    _text = "d_{0.agent}"

    def __new__(cls, agent: str = _ABSENT, /, *extra: Any) -> ADeontic:
        ref = _nodes.get(key := (cls, agent))
        if ref is not None and (node := ref()) is not None and not extra:
            return node
        if extra or agent is _ABSENT:
            raise _bad_arguments(key, extra)
        node = _new(cls)
        _set_agent(node, agent)
        _set_children(node, ())
        return _intern(key, node)


class ANext(Formula):
    __slots__ = ("coalition", "child")
    coalition: frozenset[str]
    child: Formula
    _text = "<<{0._players}>> X "

    def __new__(
        cls, coalition: frozenset[str] = _ABSENT, child: Formula = _ABSENT, /, *extra: Any
    ) -> ANext:
        ref = _nodes.get(key := (cls, coalition, child))
        if ref is not None and (node := ref()) is not None and not extra:
            return node
        if extra or not isinstance(child, Formula):
            raise _bad_arguments(key, extra)
        node = _new(cls)
        _set_coalition(node, coalition)
        _set_child(node, child)
        _set_children(node, (child,))
        return _intern(key, node)

    @property
    def _players(self) -> str:
        """The coalition as printed: sorted, so the text follows no set order."""
        return ", ".join(sorted(self.coalition))


_set_agent = ADeontic.agent.__set__
_set_coalition, _set_child = ANext.coalition.__set__, ANext.child.__set__


# --- model expansion ---------------------------------------------------------------


class AtlModel(Record):
    __slots__ = ("source", "players", "states", "moves", "rows")
    source: TransitionSystem
    players: tuple[str, ...]  # the source agents, then Nature if it joins
    # index base_index * 2^|agents| + mask: the base state's copy whose
    # allowed set holds the agents at the mask's set bits, in agent order
    states: tuple[AtlState, ...]
    # base state -> player -> available moves (actions, or successor indices
    # for Nature)
    moves: Mapping[str, Mapping[str, tuple[str, ...]]]
    # base state -> one (move vector, index of its successor in states) per
    # total move vector, in the product order of the players' moves
    rows: Mapping[str, tuple[tuple[tuple[str, ...], int], ...]]

    def __init__(
        self,
        source: TransitionSystem,
        players: tuple[str, ...],
        states: tuple[AtlState, ...],
        moves: Mapping[str, Mapping[str, tuple[str, ...]]],
        rows: Mapping[str, tuple[tuple[tuple[str, ...], int], ...]],
    ) -> None:
        set_source, set_players, set_states, set_moves, set_rows = self._setters
        set_source(self, source)
        set_players(self, players)
        set_states(self, states)
        set_moves(self, moves)
        set_rows(self, rows)

    @property
    def has_nature(self) -> bool:
        """Whether Nature joins the players, as it does when some profile has
        several successors."""
        return len(self.players) > len(self.source.agents)


def expand_model(m: TransitionSystem) -> AtlModel:
    """Expand a transition system into the deterministic game structure.

    Produces 2^|agents| expanded states per source state, so the agent count
    is capped at ``AGENT_CAP``. Nature joins only when some profile has
    several successors; its moves at a state index successor choices
    (out-of-range moves wrap). The successor of each (base state, move
    vector) is computed here once; it does not depend on the allowed set of
    the state moved from.

    An unvalidated model that the game cannot express is refused
    (``InputError``), not read otherwise than the checker reads it: at each
    state every agent must have an available action (a game gives every
    player a move), the entries' agent-ordered profiles must be exactly the
    profiles of available actions, every successor must be a state, and no
    agent may take Nature's name when Nature joins."""
    if len(m.agents) > AGENT_CAP:
        raise CapacityError(f"{len(m.agents)} agents exceed the expansion cap of {AGENT_CAP}")

    state_order = {s: i for i, s in enumerate(m.states)}
    # base state -> agent-ordered profile -> successors sorted by state order
    profile_successors: dict[str, dict[tuple[str, ...], list[str]]] = {}
    for s in m.states:
        table: dict[tuple[str, ...], set[str]] = {}
        for profile, target in m.entries(s):
            if target not in state_order:
                raise InputError(f"transition from {s!r} reaches unknown state {target!r}")
            table.setdefault(tuple(map(profile.get, m.agents)), set()).add(target)
        for a in m.agents:
            if not m.action_set(s, a):
                raise InputError(f"agent {a!r} has no available action at state {s!r}")
        if table.keys() != set(product(*(m.action_set(s, a) for a in m.agents))):
            raise InputError(
                f"the entries at state {s!r} do not cover exactly its profiles of available actions"
            )
        profile_successors[s] = {
            key: sorted(targets, key=state_order.__getitem__) for key, targets in table.items()
        }
    has_nature = any(len(ts) > 1 for table in profile_successors.values() for ts in table.values())
    if has_nature and NATURE in m.agents:
        raise InputError(f"agent {NATURE!r} is reserved for the game's bookkeeping agent")

    n = len(m.agents)
    players = tuple(m.agents) + ((NATURE,) if has_nature else ())
    moves: dict[str, dict[str, tuple[str, ...]]] = {}
    rows: dict[str, tuple[tuple[tuple[str, ...], int], ...]] = {}
    for s in m.states:
        table = profile_successors[s]
        per_player = {a: tuple(m.action_set(s, a)) for a in m.agents}
        if has_nature:
            multiplicity = max(len(ts) for ts in table.values())
            per_player[NATURE] = tuple(str(i) for i in range(multiplicity))
        moves[s] = per_player
        permitted = [m.permitted_set(s, a) for a in m.agents]
        out = []
        for vector in product(*(per_player[p] for p in players)):
            targets = table[vector[:n]]
            target = targets[int(vector[n]) % len(targets)] if has_nature else targets[0]
            mask = sum(1 << i for i, allowed in enumerate(permitted) if vector[i] in allowed)
            out.append((vector, state_order[target] << n | mask))
        rows[s] = tuple(out)

    subsets = [
        frozenset(a for i, a in enumerate(m.agents) if mask >> i & 1) for mask in range(1 << n)
    ]
    states = tuple(AtlState(s, subset) for s in m.states for subset in subsets)
    return AtlModel(m, players, states, moves, rows)


# --- translation -------------------------------------------------------------------


def translate_formula(f: Formula, am: AtlModel) -> Formula:
    """Structurally translate a permission formula for evaluation on ``am``."""
    grand = frozenset(am.players)
    out: dict[Formula, Formula] = {}

    def leaf(g: Formula) -> Formula:
        if isinstance(g, Prop):
            return g
        if not isinstance(g, Modal):
            raise InputError(f"not a formula node: {g!r}")
        body, d = out[g.child], ADeontic(g.agent)
        if g.kind is Modality.WA:
            return ANext(grand, and_(d, body))
        if g.kind is Modality.WE:
            return ANext(frozenset({g.agent}), and_(d, body))
        if g.kind is Modality.SE:
            return Neg(ANext(frozenset({g.agent}), Neg(implies(body, d))))
        return Neg(ANext(grand, Neg(implies(body, d))))

    return fold(f, out, Neg, Or, leaf)


# --- evaluation --------------------------------------------------------------------


def eval_atl(am: AtlModel, f: Formula) -> frozenset[int]:
    """Indices into ``am.states`` where the next-step formula ``f`` holds.

    Global labelling: each distinct subformula gets its set once, children
    first. A coalition can force its body when some joint move of the
    coalition makes the body hold for every completion by the remaining
    players."""
    everything = frozenset(range(len(am.states)))
    labels: dict[Formula, frozenset[int]] = {}

    def leaf(g: Formula) -> frozenset[int]:
        if isinstance(g, Prop):
            where = am.source.valuation.get(g.name, frozenset())
            return _copies(am, [g.name == TOP_PROP or s in where for s in am.source.states])
        if isinstance(g, ADeontic):
            bit = 1 << am.source.agents.index(g.agent) if g.agent in am.source.agents else 0
            return frozenset(i for i in everything if i & bit)
        if isinstance(g, ANext):
            return _copies(am, _forcing_bases(am, g.coalition, labels[g.child]))
        raise InputError(f"not a next-step formula node: {g!r}")

    return fold(f, labels, everything.__sub__, or_, leaf)


def _copies(am: AtlModel, base_holds: list[bool]) -> frozenset[int]:
    """All 2^|agents| copies of each base state, by position, where ``base_holds``."""
    width = 1 << len(am.source.agents)
    return frozenset(
        i for b, holds in enumerate(base_holds) if holds for i in range(b * width, (b + 1) * width)
    )


def _forcing_bases(am: AtlModel, coalition: frozenset[str], body: frozenset[int]) -> list[bool]:
    """Per base state: does some joint move of ``coalition`` land every row
    that extends it inside ``body``? The pre-image of <<coalition>> X."""
    players = am.players
    unknown = coalition - set(players)
    if unknown:
        raise InputError(f"coalition mentions unknown players {sorted(unknown)}")
    picks = [i for i, p in enumerate(players) if p in coalition]
    key = itemgetter(*picks) if picks else (lambda vector: ())
    out = []
    for s in am.source.states:
        rows = am.rows[s]
        blocked = {key(vector) for vector, succ in rows if succ not in body}
        out.append(any(key(vector) not in blocked for vector, _ in rows))
    return out


# --- equivalence check -------------------------------------------------------------


class TranslationVerdict(Record):
    __slots__ = ("checked", "game", "mismatch_state", "expected")
    checked: int
    game: AtlModel  # the expansion the check ran on
    mismatch_state: AtlState | None
    expected: bool | None

    def __init__(
        self,
        checked: int,
        game: AtlModel,
        mismatch_state: AtlState | None = None,
        expected: bool | None = None,
    ) -> None:
        set_checked, set_game, set_mismatch, set_expected = self._setters
        set_checked(self, checked)
        set_game(self, game)
        set_mismatch(self, mismatch_state)
        set_expected(self, expected)

    @property
    def ok(self) -> bool:
        return self.mismatch_state is None


def verify_translation(m: TransitionSystem, f: Formula) -> TranslationVerdict:
    """Check that evaluating the translated formula at every expanded state
    <s, D> agrees with membership of s in the directly computed truth set
    (which also establishes that the D component is irrelevant)."""
    expected = model_check(m, f)
    am = expand_model(m)
    holds = eval_atl(am, translate_formula(f, am))
    for i, st in enumerate(am.states):
        want = st.base in expected
        if (i in holds) != want:
            return TranslationVerdict(i + 1, am, st, want)
    return TranslationVerdict(len(am.states), am)


# --- JSON export -------------------------------------------------------------------


def atl_model_to_dict(am: AtlModel) -> dict[str, Any]:
    """Serializable form of the expanded game structure. Transitions are
    listed per base state because they do not depend on the source state's
    subset tag."""
    entries = [
        {
            "base": s,
            "moves": dict(zip(am.players, vector)),
            "to": {"base": am.states[succ].base, "allowed": sorted(am.states[succ].allowed)},
        }
        for s in am.source.states
        for vector, succ in am.rows[s]
    ]
    return {
        "schema": "permitmc.atl/v1",
        "agents": list(am.source.agents),
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
            for a in am.source.agents
        },
    }
