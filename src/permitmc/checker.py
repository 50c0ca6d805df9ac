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
nearly full. The global checker labels the distinct subformulas bottom-up in
one ``formula.fold``, which takes complements and unions for negation and
disjunction, so formula depth is bounded by memory only. A step's result
depends only on its modality, its agent and the truth set of its argument,
so the checker memoizes per subformula and per (modality, agent, argument
truth set): a modal subformula costs one step unless an earlier one had the
same key, and then one hash and one equality test of the truth set,
O(|psi|). Nested modal formulas whose argument truth sets recur gain the
most.

The per-state oracle ``check_state_naive`` transcribes the satisfaction
relation directly from the raw mechanism, with no sharing and no cached
table; it exists so the two implementations can be checked against each
other.
"""

from __future__ import annotations

from itertools import compress
from operator import not_, or_
from typing import Iterator

from .errors import InputError
from .formula import TOP_PROP, Formula, Modal, Modality, Neg, Or, Prop, fold
from .model import TransitionSystem, TruthSet, within_states


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
    """Global model checking context for one model, memoized per subformula
    and per (modality, agent, argument truth set).

    ``truth_set`` labels the distinct subformulas not yet in the memo,
    children first, in one ``fold``; the memo holds frozensets, and only the
    result is copied into a ``TruthSet``. A modal subformula reuses the
    image of any earlier one with the same modality, agent and argument
    truth set, at the cost of one hash and one equality test of that truth
    set, and calls ``modal_image`` only for a new key; a step that fails
    stores nothing. ``model.within_states`` refuses a valuation member
    outside the states (InputError), as it does for ``algebra.family_of``.
    Both caches are private to the instance and are freed with it: a caller
    that checks many formulas on one model keeps one checker to reuse its
    images. Independent checkers can run concurrently over the same
    (immutable) model.
    """

    def __init__(self, model: TransitionSystem):
        self.model = model
        self._memo: dict[Formula, frozenset[str]] = {}
        self._images: dict[tuple[Modality, str, frozenset[str]], frozenset[str]] = {}

    def truth_set(self, f: Formula) -> TruthSet:
        m, memo, images = self.model, self._memo, self._images

        def leaf(g: Formula) -> frozenset[str]:
            if isinstance(g, Modal):
                key = (g.kind, g.agent, memo[g.child])
                image = images.get(key)
                if image is None:
                    image = images[key] = modal_image(m, *key)
                return image
            if isinstance(g, Prop):
                if g.name == TOP_PROP:
                    return m.state_set
                return within_states(m, m.valuation.get(g.name, frozenset()))
            raise InputError(f"not a formula node: {g!r}")

        return TruthSet(fold(f, memo, m.state_set.__sub__, or_, leaf))


def model_check(m: TransitionSystem, f: Formula) -> TruthSet:
    """Truth set of ``f`` in ``m``."""
    return ModelChecker(m).truth_set(f)


def check_state_naive(m: TransitionSystem, s: str, f: Formula) -> bool:
    """Direct recursive satisfaction check at one state.

    Deliberately naive: no memoization, no truth sets, each modality expands
    into per-action quantifier scans. Serves as an independent oracle for
    model_check, so it stays recursive on purpose and shares no walk with the
    rest of the package; it is the one function whose recursion follows the
    depth of a formula it is given (``generate.random_formula`` recurses once
    per level it generates, up to its ``max_depth``). It reads an invalid
    model as the checker does: WA and WE quantify over the permitted actions
    that are also available, an entry counts toward an agent's action only
    when its profile gives the agent that available action, and a successor
    outside the states satisfies no formula.
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
                for i in m.action_set(s, agent) if i in m.permitted_set(s, agent)
            )
        if f.kind is Modality.WE:
            return any(
                all(_outcomes_naive(m, states, s, agent, i, f.child))
                for i in m.action_set(s, agent) if i in m.permitted_set(s, agent)
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
