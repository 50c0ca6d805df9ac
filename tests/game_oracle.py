"""Tag-wise reference evaluator for the ATL game, used as a test oracle.

It decides a next-step formula at one expanded state <s, D> by recursion over
the formula, and recomputes every successor from the source model's mechanism
entries and permitted sets. It shares no code with ``permitmc.atl``'s
successor table or its labelling evaluator; only the node classes and the
name of the Nature player come from there.
"""

from __future__ import annotations

from itertools import product

from permitmc.atl import NATURE, ADeontic, ANext
from permitmc.errors import InputError
from permitmc.formula import TOP_PROP, Neg, Or, Prop


class GameOracle:
    def __init__(self, m):
        self.m = m
        order = {s: i for i, s in enumerate(m.states)}
        # base state -> agent-ordered profile -> successors in state order
        self.targets = {}
        for s in m.states:
            table = {}
            for profile, t in m.entries(s):
                table.setdefault(tuple(profile[a] for a in m.agents), set()).add(t)
            self.targets[s] = {k: sorted(ts, key=order.get) for k, ts in table.items()}
        self.has_nature = any(
            len(ts) > 1 for table in self.targets.values() for ts in table.values()
        )
        self.players = tuple(m.agents) + ((NATURE,) if self.has_nature else ())
        self._memo = {}

    def moves(self, s, player):
        if player == NATURE:
            return tuple(str(i) for i in range(max(map(len, self.targets[s].values()))))
        return tuple(self.m.action_set(s, player))

    def vectors(self, s):
        """Every total move vector at ``s``, in the product order of the players' moves."""
        for combo in product(*(self.moves(s, p) for p in self.players)):
            yield dict(zip(self.players, combo))

    def transition(self, s, vector):
        """(successor base state, allowed set) under a total move vector."""
        targets = self.targets[s][tuple(vector[a] for a in self.m.agents)]
        pick = int(vector[NATURE]) % len(targets) if self.has_nature else 0
        allowed = frozenset(
            a for a in self.m.agents if vector[a] in self.m.permitted_set(s, a)
        )
        return targets[pick], allowed

    def holds(self, base, allowed, f):
        key = (base, allowed, f)
        if key not in self._memo:
            self._memo[key] = self._holds(base, allowed, f)
        return self._memo[key]

    def _holds(self, base, allowed, f):
        if isinstance(f, Prop):
            return f.name == TOP_PROP or base in self.m.valuation.get(f.name, frozenset())
        if isinstance(f, ADeontic):
            return f.agent in allowed
        if isinstance(f, Neg):
            return not self.holds(base, allowed, f.child)
        if isinstance(f, Or):
            return self.holds(base, allowed, f.left) or self.holds(base, allowed, f.right)
        if isinstance(f, ANext):
            movers = [p for p in self.players if p in f.coalition]
            others = [p for p in self.players if p not in f.coalition]
            for own in product(*(self.moves(base, p) for p in movers)):
                fixed = dict(zip(movers, own))
                if all(
                    self.holds(
                        *self.transition(base, {**fixed, **dict(zip(others, rest))}), f.child
                    )
                    for rest in product(*(self.moves(base, p) for p in others))
                ):
                    return True
            return False
        raise InputError(f"not a next-step formula node: {f!r}")
