"""Reference semantics for the correctness gates, written against the raw
JSON model tables so that it shares no code with the checker under test.

Truth sets are computed bottom-up, one memoized pass per distinct
subformula, with an explicit stack so deep modal chains need no recursion.
Formulas are the package's public AST (Prop / Neg / Or / Modal); ``__top`` is
the language's reserved always-true proposition.
"""

from __future__ import annotations

from typing import Any

TOP_PROP = "__top"


class RawModel:
    """Per (state, agent): each action's successor set and whether it is
    permitted, read from model JSON."""

    def __init__(self, doc: dict[str, Any]):
        self.states: list[str] = list(doc["states"])
        self.valuation = {p: set(sts) for p, sts in doc["valuation"].items()}
        succ: dict[str, dict[str, dict[str, set[str]]]] = {
            s: {a: {i: set() for i in acts} for a, acts in per.items()}
            for s, per in doc["actions"].items()
        }
        entries = dict.fromkeys(self.states, 0)
        for entry in doc["transitions"]:
            per_agent = succ[entry["from"]]
            entries[entry["from"]] += 1
            for agent, action in entry["profile"].items():
                per_agent[agent][action].add(entry["to"])
        self.rows = {
            s: {
                a: [(frozenset(targets), i in doc["permitted"][s][a]) for i, targets in by_action.items()]
                for a, by_action in per.items()
            }
            for s, per in succ.items()
        }
        self.max_entries = max(entries.values(), default=0)

    def modal(self, kind: str, agent: str, inside: frozenset[str]) -> frozenset[str]:
        """The four semantic clauses: the states where ``kind[agent]`` holds
        when its argument holds exactly at ``inside``."""
        rows = self.rows
        if kind == "WA":  # some permitted action may reach inside
            test = lambda r: any(p and not t.isdisjoint(inside) for t, p in r)  # noqa: E731
        elif kind == "WE":  # some permitted action reaches only inside
            test = lambda r: any(p and t <= inside for t, p in r)  # noqa: E731
        elif kind == "SE":  # every action reaching only inside is permitted
            test = lambda r: all(p for t, p in r if t <= inside)  # noqa: E731
        elif kind == "SA":  # every action that may reach inside is permitted
            test = lambda r: all(p for t, p in r if not t.isdisjoint(inside))  # noqa: E731
        else:
            raise ValueError(f"unknown modality {kind!r}")
        return frozenset(s for s in self.states if test(rows[s][agent]))


def truth_set(model: RawModel, formula: Any) -> frozenset[str]:
    from permitmc.formula import Modal, Neg, Or, Prop

    universe = frozenset(model.states)
    memo: dict[Any, frozenset[str]] = {}
    stack = [(formula, False)]
    while stack:
        f, expanded = stack.pop()
        if f in memo:
            continue
        children = (
            (f.child,) if isinstance(f, (Neg, Modal)) else (f.left, f.right) if isinstance(f, Or) else ()
        )
        if not expanded and any(c not in memo for c in children):
            stack.append((f, True))
            stack.extend((c, False) for c in children if c not in memo)
            continue
        if isinstance(f, Prop):
            result = universe if f.name == TOP_PROP else frozenset(model.valuation.get(f.name, ()))
        elif isinstance(f, Neg):
            result = universe - memo[f.child]
        elif isinstance(f, Or):
            result = memo[f.left] | memo[f.right]
        elif isinstance(f, Modal):
            result = model.modal(f.kind.value, f.agent, memo[f.child])
        else:
            raise TypeError(f"not a formula node: {f!r}")
        memo[f] = result
    return memo[formula]
