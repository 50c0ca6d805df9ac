"""Semantics engine: global model checking and a literal per-state oracle.

Whether an action ``i`` of agent ``a`` at state ``s`` ensures or admits a
truth set depends only on U(s, a, i), the union of the successors of the
mechanism entries where ``a`` plays ``i``. Each model caches these unions
(``TransitionSystem.successor_unions``), built in O(|Delta| * |Ag|) on first
use, as flat rows per agent: for its permitted and for its other available
actions, the states and the unions, one row per (state, action). One
classifier, ``modal_image``, answers all four modalities with one C-level
scan (``map`` and ``compress``) of one side of the agent's rows, asking of
each union U one question, ``X.isdisjoint(U)``: X is the truth set for the
admit modalities and its complement for the ensure modalities. The test
probes the smaller of X and U and stops at the first common state, so a
modal step costs O(sum over s and i of min(|X|, |U(s, a, i)|)) at most, with
no interpreter work per state, whether the truth set is nearly empty or
nearly full. The global checker labels the distinct
subformulas bottom-up in one ``formula.postorder`` walk, with one such step
per modal subformula, so formula depth is bounded by memory only.

The per-state oracle ``check_state_naive`` transcribes the satisfaction
relation directly from the raw mechanism, with no sharing and no cached
table; it exists so the two implementations can be checked against each
other.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Iterator

from .errors import InputError
from .formula import TOP_PROP, Formula, Modal, Modality, Neg, Or, Prop, postorder
from .model import TransitionSystem, TruthSet

__all__ = [
    "modal_image",
    "truth_set_wa",
    "truth_set_we",
    "truth_set_se",
    "truth_set_sa",
    "ModelChecker",
    "model_check",
    "check_state_naive",
]


def modal_image(m: TransitionSystem, kind: Modality, agent: str, psi: frozenset) -> frozenset:
    """States where ``kind[agent]`` holds of the truth set ``psi``.

    Every action is put one question, ``X.isdisjoint(U)`` for its successor
    union U. For the admit modalities (WA, SA) X is ``psi``, and an action
    passes when X meets U. For the ensure modalities (WE, SE) X is the
    complement of ``psi`` in ``successor_universe``, which holds every
    successor, and an action passes when X misses U, that is when U lies
    inside. ``isdisjoint`` probes the smaller set's members in the larger and
    stops at the first common one, so a step costs O(sum of min(|X|, |U|))
    at most, and a nearly full ``psi`` costs about as little as a nearly
    empty one.

    A weak modality holds where some permitted action passes, a strong one
    where no non-permitted action does. Either way the step is one scan of
    the agent's rows on that side, mapped and compressed in C.
    """
    sides = m.successor_unions.get(agent)
    if sides is None:
        raise InputError(f"unknown agent {agent!r}")
    weak = kind is Modality.WA or kind is Modality.WE
    admit = kind is Modality.WA or kind is Modality.SA
    states, unions = sides[0 if weak else 1]
    x = psi if admit else m.successor_universe - psi
    disjoint = map(x.isdisjoint, unions)
    passes = map(not_, disjoint) if admit else disjoint
    hits = frozenset(compress(states, passes))
    return hits if weak else m.state_set - hits


def truth_set_wa(m: TransitionSystem, agent: str, psi: frozenset) -> frozenset:
    return modal_image(m, Modality.WA, agent, psi)


def truth_set_we(m: TransitionSystem, agent: str, psi: frozenset) -> frozenset:
    return modal_image(m, Modality.WE, agent, psi)


def truth_set_se(m: TransitionSystem, agent: str, psi: frozenset) -> frozenset:
    return modal_image(m, Modality.SE, agent, psi)


def truth_set_sa(m: TransitionSystem, agent: str, psi: frozenset) -> frozenset:
    return modal_image(m, Modality.SA, agent, psi)


class ModelChecker:
    """Global model checking context for one model, memoized per subformula.

    ``truth_set`` labels the distinct subformulas not yet in the memo,
    children first, in one ``postorder`` walk; the memo holds frozensets,
    and only the result is copied into a ``TruthSet``. The cache is
    private to the instance, so independent checkers can run concurrently
    over the same (immutable) model.
    """

    def __init__(self, model: TransitionSystem):
        self.model = model
        self._memo: dict[Formula, frozenset[str]] = {}

    def truth_set(self, f: Formula) -> TruthSet:
        m, memo = self.model, self._memo
        for g in postorder(f, memo):
            if isinstance(g, Modal):
                memo[g] = modal_image(m, g.kind, g.agent, memo[g.child])
            elif isinstance(g, Or):
                memo[g] = memo[g.left] | memo[g.right]
            elif isinstance(g, Neg):
                memo[g] = m.state_set - memo[g.child]
            elif isinstance(g, Prop):
                if g.name == TOP_PROP:
                    memo[g] = m.state_set
                else:
                    members = m.valuation.get(g.name, frozenset())
                    if not members <= m.state_set:
                        extra = sorted(members - m.state_set)
                        raise InputError(f"truth set members outside the state universe: {extra}")
                    memo[g] = members
            else:
                raise InputError(f"not a formula node: {g!r}")
        return TruthSet(memo[f])


def model_check(m: TransitionSystem, f: Formula) -> TruthSet:
    """Truth set of ``f`` in ``m``."""
    return ModelChecker(m).truth_set(f)


def check_state_naive(m: TransitionSystem, s: str, f: Formula) -> bool:
    """Direct recursive satisfaction check at one state.

    Deliberately naive: no memoization, no truth sets, each modality expands
    into per-action quantifier scans. Serves as an independent oracle for
    model_check, so it stays recursive on purpose and shares no walk with the
    rest of the package; it is the one function whose recursion follows
    formula depth. A successor outside the states satisfies no formula, as
    in the checker.
    """
    states = set(m.states)
    if s not in states:
        raise InputError(f"unknown state {s!r}")
    return _naive(m, states, s, f)


def _naive(m: TransitionSystem, states: set[str], s: str, f: Formula) -> bool:
    if isinstance(f, Prop):
        if f.name == TOP_PROP:
            return True
        return s in m.valuation.get(f.name, frozenset())
    if isinstance(f, Neg):
        return not _naive(m, states, s, f.child)
    if isinstance(f, Or):
        return _naive(m, states, s, f.left) or _naive(m, states, s, f.right)
    if isinstance(f, Modal):
        agent = f.agent
        if agent not in m.agents:
            raise InputError(f"formula mentions unknown agent {agent!r}")
        if f.kind is Modality.WA:
            return any(
                any(_outcomes_naive(m, states, s, agent, i, f.child))
                for i in m.permitted_set(s, agent)
            )
        if f.kind is Modality.WE:
            return any(
                all(_outcomes_naive(m, states, s, agent, i, f.child))
                for i in m.permitted_set(s, agent)
            )
        if f.kind is Modality.SE:
            return all(
                i in m.permitted_set(s, agent)
                for i in m.action_set(s, agent)
                if all(_outcomes_naive(m, states, s, agent, i, f.child))
            )
        if f.kind is Modality.SA:
            return all(
                i in m.permitted_set(s, agent)
                for i in m.action_set(s, agent)
                if any(_outcomes_naive(m, states, s, agent, i, f.child))
            )
    raise InputError(f"not a formula node: {f!r}")


def _outcomes_naive(
    m: TransitionSystem, states: set[str], s: str, agent: str, action: str, f: Formula
) -> Iterator[bool]:
    """Whether ``f`` holds at each successor reached while ``agent`` plays
    ``action`` at ``s``: the action ensures ``f`` when all do and admits it
    when any does."""
    return (
        t in states and _naive(m, states, t, f)
        for profile, t in m.entries(s)
        if profile.get(agent) == action
    )
