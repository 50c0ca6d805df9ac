"""Multiagent transition systems: data model, validation, and JSON format.

A transition system bundles, per state:

  * a nonempty set of actions for each agent,
  * a nonempty permitted subset of those actions for each agent,
  * a mechanism relation mapping full action profiles to successor states,
    where every profile must have at least one successor (continuity),
  * a valuation assigning each proposition the set of states where it holds.

Models are treated as immutable after construction; nothing in this package
mutates them, so they are safe to share across threads. A truth set is a
``frozenset`` of state names; ``TruthSet`` is the frozenset that
``ModelChecker.truth_set`` returns.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import CapacityError, InputError
from .formula import TOP_PROP

DEFAULT_PROFILE_CAP = 10**6
PROFILE_CAP_ENV = "PERMITMC_PROFILE_CAP"

Profile = Mapping[str, str]
TransitionEntry = tuple[Profile, str]
# parallel tuples: states, and the successor union of one action at each
UnionRows = tuple[tuple[str, ...], tuple[frozenset[str], ...]]


@dataclass(frozen=True)
class TransitionSystem:
    agents: tuple[str, ...]
    states: tuple[str, ...]
    # state -> agent -> available actions (order preserved for determinism)
    actions: Mapping[str, Mapping[str, tuple[str, ...]]]
    # state -> agent -> permitted subset
    permitted: Mapping[str, Mapping[str, frozenset[str]]]
    # state -> ((profile, successor), ...)
    mechanism: Mapping[str, tuple[TransitionEntry, ...]]
    # proposition -> states where it holds
    valuation: Mapping[str, frozenset[str]]

    def action_set(self, state: str, agent: str) -> tuple[str, ...]:
        return self.actions.get(state, {}).get(agent, ())

    def permitted_set(self, state: str, agent: str) -> frozenset[str]:
        return self.permitted.get(state, {}).get(agent, frozenset())

    def entries(self, state: str) -> tuple[TransitionEntry, ...]:
        return self.mechanism.get(state, ())

    @cached_property
    def state_set(self) -> frozenset[str]:
        return frozenset(self.states)

    @cached_property
    def successor_unions(self) -> dict[str, tuple[UnionRows, UnionRows]]:
        """agent -> (rows of its permitted available actions, rows of its
        other available actions), one row per (state, action).

        Each side is two parallel tuples: the states, and the successor union
        of the action at that state, the set of successors of the mechanism
        entries whose profile assigns that action to the agent. Entries whose
        profile misses the agent or gives it an unavailable action count for
        none of its actions. Permitted actions that are not available have no
        row. With flat rows a modal step is one C-level scan of one side of
        the agent's rows, one early-exit ``X.isdisjoint(U)`` test per row (X
        a truth set or its complement in ``successor_universe``), so at most
        O(sum over s and i of min(|X|, |U(s, a, i)|)) set work with no
        interpreter work per state. Built once per model in
        O(|Delta| * |Ag|); models are immutable.
        """
        # agent -> ((permitted states, unions), (other states, unions))
        rows = {a: (([], []), ([], [])) for a in self.agents}
        for s in dict.fromkeys(self.states):  # each state once, even if named twice
            entries = self.entries(s)
            for a, sides in rows.items():
                by_action: dict[str, set[str]] = {i: set() for i in self.action_set(s, a)}
                for profile, target in entries:
                    u = by_action.get(profile.get(a))
                    if u is not None:
                        u.add(target)
                allowed = self.permitted_set(s, a)
                for i, u in by_action.items():
                    states, unions = sides[i not in allowed]
                    states.append(s)
                    unions.append(frozenset(u))
        return {
            a: tuple((tuple(states), tuple(unions)) for states, unions in sides)
            for a, sides in rows.items()
        }

    @cached_property
    def successor_universe(self) -> frozenset[str]:
        """``state_set`` together with every successor the mechanism names.

        It equals ``state_set`` in a valid model. In an unvalidated one it
        also holds the successors outside ``states``, so that a complement
        taken in it keeps every member of a successor union that lies outside
        a truth set.
        """
        targets = map(itemgetter(1), chain.from_iterable(self.mechanism.values()))
        return self.state_set.union(targets)


class TruthSet(frozenset):
    """A truth set as ``ModelChecker.truth_set`` returns it: a frozenset of
    state names, with two read accessors."""

    __slots__ = ()

    @property
    def members(self) -> frozenset[str]:
        return self

    def sorted_members(self) -> list[str]:
        return sorted(self)


def make_model(
    agents: Iterable[str],
    states: Iterable[str],
    actions: Mapping[str, Mapping[str, Iterable[str]]],
    permitted: Mapping[str, Mapping[str, Iterable[str]]],
    transitions: Iterable[tuple[str, Mapping[str, str], str]],
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> TransitionSystem:
    """Normalize plain containers into a TransitionSystem.

    State names are shared as one object: every state the model stores as a
    mechanism source or target, a key of ``actions`` or ``permitted``, or a
    valuation member is the string object in ``states``, so set probes on
    state names succeed on identity without comparing characters. A name
    that is not in ``states`` stays as given.

    No invariant checking happens here; run validate_model to get a report.
    """
    states = tuple(states)
    shared = {s: s for s in states}.get
    mechanism: dict[str, list[TransitionEntry]] = {}
    for source, profile, target in transitions:
        mechanism.setdefault(shared(source, source), []).append(
            (dict(profile), shared(target, target))
        )
    return TransitionSystem(
        agents=tuple(agents),
        states=states,
        actions={
            shared(s, s): {a: tuple(acts) for a, acts in per.items()}
            for s, per in actions.items()
        },
        permitted={
            shared(s, s): {a: frozenset(acts) for a, acts in per.items()}
            for s, per in permitted.items()
        },
        mechanism={s: tuple(entries) for s, entries in mechanism.items()},
        valuation={
            p: frozenset([shared(s, s) for s in sts]) for p, sts in (valuation or {}).items()
        },
    )


# --- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    state: str | None = None
    agent: str | None = None
    profile: tuple[tuple[str, str], ...] | None = None

    def __str__(self) -> str:
        return self.message


def _profile_key(profile: Profile) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(profile.items()))


def profile_cap() -> int:
    raw = os.environ.get(PROFILE_CAP_ENV)
    if raw is None:
        return DEFAULT_PROFILE_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{PROFILE_CAP_ENV} must be an integer, got {raw!r}") from exc


def validate_model(m: TransitionSystem, cap: int | None = None) -> list[Violation]:
    """Check every model invariant; an empty report means the model is valid.

    Violations are data, not failures: arbitrary candidate structures are
    accepted. The mechanism is read in one pass, which also collects, per
    state, the distinct profiles that cover the agent set with available
    actions. Continuity holds at a state when their number equals the
    product of its per-agent action counts; the product of the available
    actions is enumerated only at a state where it does not, to name the
    uncovered profiles. That enumeration is guarded by a cap on the total
    number of profiles (default 10^6, override via PERMITMC_PROFILE_CAP),
    which raises CapacityError when exceeded, whether or not the model is
    valid.
    """
    cap = profile_cap() if cap is None else cap
    out: list[Violation] = []
    state_set = set(m.states)
    agent_set = set(m.agents)

    for name, seq, code in (("agent", m.agents, "duplicate-agent"), ("state", m.states, "duplicate-state")):
        seen: set[str] = set()
        for item in seq:
            if item in seen:
                out.append(Violation(code, f"duplicate {name} name {item!r}"))
            seen.add(item)

    total_profiles = 0
    # state -> number of profiles of available actions, and the available
    # action sets in agent order
    need: dict[str, int] = {}
    available: dict[str, tuple[frozenset[str], ...]] = {}
    for s in m.states:
        act_sets = []
        for a in m.agents:
            acts = m.action_set(s, a)
            act_set = frozenset(acts)
            act_sets.append(act_set)
            if not acts:
                out.append(
                    Violation("empty-actions", f"no actions for agent {a!r} at state {s!r}", s, a)
                )
            if len(act_set) != len(acts):
                out.append(
                    Violation("duplicate-action", f"duplicate action names at ({s!r}, {a!r})", s, a)
                )
            perm = m.permitted_set(s, a)
            if not perm:
                out.append(
                    Violation(
                        "empty-permitted", f"empty permitted set at ({s!r}, {a!r})", s, a
                    )
                )
            extra = perm - act_set
            if extra:
                out.append(
                    Violation(
                        "permitted-not-subset",
                        f"permitted actions {sorted(extra)} not available at ({s!r}, {a!r})",
                        s,
                        a,
                    )
                )
        counts = [len(m.action_set(s, a)) for a in m.agents]
        need[s] = math.prod(counts) if all(counts) else 0
        total_profiles += need[s]
        available[s] = tuple(act_sets)

    if total_profiles > cap:
        raise CapacityError(
            f"profile enumeration would visit {total_profiles} profiles, over the cap of {cap}"
        )

    actions_of = _actions_getter(m.agents)
    # state -> distinct agent-ordered action tuples of covering profiles
    # whose actions are all available there
    covered: dict[str, set[tuple[str, ...]]] = {}
    for s, entries in m.mechanism.items():
        if s not in state_set:
            out.append(
                Violation("unknown-state-in-mechanism", f"transitions from unknown state {s!r}", s)
            )
            continue
        good = covered[s] = set()
        avail = available[s]
        for profile, target in entries:
            if profile.keys() != agent_set:
                key = _profile_key(profile)
                out.append(
                    Violation(
                        "malformed-profile",
                        f"profile {dict(key)} at state {s!r} does not cover exactly the agent set",
                        s,
                        profile=key,
                    )
                )
            else:
                acts = actions_of(profile)
                if acts not in good:
                    if all(map(frozenset.__contains__, avail, acts)):
                        good.add(acts)
                    else:
                        out.extend(_unavailable_actions(m, s, profile))
            if target not in state_set:
                key = _profile_key(profile)
                out.append(
                    Violation(
                        "bad-target",
                        f"transition from {s!r} under {dict(key)} reaches unknown state {target!r}",
                        s,
                        profile=key,
                    )
                )

    for s in m.states:
        # need[s] is 0 where some agent has no action (reported as empty-actions).
        # Each covered tuple is a distinct one of the need[s] combinations of
        # available actions, so a full count leaves none uncovered. Duplicate
        # agents or actions make combinations coincide, so such states never
        # reach the count and are enumerated.
        if need[s] and len(covered.get(s, ())) != need[s]:
            out.extend(_uncovered_profiles(m, s))

    for p, states in m.valuation.items():
        if p == TOP_PROP:
            out.append(
                Violation("reserved-proposition", f"valuation defines reserved proposition {p!r}")
            )
        extra = states - state_set
        if extra:
            out.append(
                Violation(
                    "valuation-unknown-state",
                    f"valuation of {p!r} mentions unknown states {sorted(extra)}",
                )
            )

    return out


def _actions_getter(agents: tuple[str, ...]) -> Callable[[Profile], tuple[str, ...]]:
    """profile -> tuple of its actions in the order of ``agents``."""
    if len(agents) > 1:
        return itemgetter(*agents)
    return lambda profile: tuple(profile[a] for a in agents)


def _unavailable_actions(m: TransitionSystem, s: str, profile: Profile) -> Iterator[Violation]:
    key = _profile_key(profile)
    for a in m.agents:
        if profile[a] not in m.action_set(s, a):
            yield Violation(
                "malformed-profile",
                f"profile {dict(key)} at state {s!r} uses unavailable action "
                f"{profile[a]!r} of agent {a!r}",
                s,
                a,
                key,
            )


def _uncovered_profiles(m: TransitionSystem, s: str) -> Iterator[Violation]:
    """Continuity violations at ``s``, one per profile of available actions
    that no mechanism entry covers, in enumeration order."""
    covered = {_profile_key(profile) for profile, _ in m.entries(s) if set(profile) == set(m.agents)}
    for combo in product(*(m.action_set(s, a) for a in m.agents)):
        key = _profile_key(dict(zip(m.agents, combo)))
        if key not in covered:
            yield Violation(
                "continuity", f"profile {dict(key)} at state {s!r} has no successor", s, profile=key
            )


# --- JSON format ----------------------------------------------------------------


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _is_str_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _str_list(value: Any, what: str) -> list[str]:
    _expect(_is_str_list(value), f"{what} must be a list of strings")
    return list(value)


def model_to_dict(m: TransitionSystem) -> dict[str, Any]:
    return {
        "agents": list(m.agents),
        "states": list(m.states),
        "actions": {s: {a: list(acts) for a, acts in per.items()} for s, per in m.actions.items()},
        "permitted": {
            s: {a: sorted(acts) for a, acts in per.items()} for s, per in m.permitted.items()
        },
        "transitions": [
            {"from": s, "profile": dict(sorted(profile.items())), "to": target}
            for s in m.mechanism
            for profile, target in m.mechanism[s]
        ],
        "valuation": {p: sorted(states) for p, states in sorted(m.valuation.items())},
    }


def model_from_dict(data: Any) -> TransitionSystem:
    """Decode the JSON model format. Structural (shape) errors raise InputError;
    semantic problems are left for validate_model to report.

    A message is formatted only for a check that fails. Nothing is copied
    here: make_model copies every container into the model."""
    _expect(isinstance(data, dict), "model document must be a JSON object")
    for key in ("agents", "states", "actions", "permitted", "transitions", "valuation"):
        if key not in data:
            raise InputError(f"model document is missing the {key!r} field")
    agents = _str_list(data["agents"], "agents")
    states = _str_list(data["states"], "states")

    def check_table(raw: Any, what: str) -> dict[str, dict[str, list[str]]]:
        _expect(isinstance(raw, dict), f"{what} must be an object keyed by state")
        for s, per in raw.items():
            if not isinstance(per, dict):
                raise InputError(f"{what}[{s!r}] must be an object keyed by agent")
            for a, acts in per.items():
                if not _is_str_list(acts):
                    raise InputError(f"{what}[{s!r}][{a!r}] must be a list of strings")
        return raw

    actions = check_table(data["actions"], "actions")
    permitted = check_table(data["permitted"], "permitted")

    raw_transitions = data["transitions"]
    _expect(isinstance(raw_transitions, list), "transitions must be a list")
    for i, entry in enumerate(raw_transitions):
        if not isinstance(entry, dict):
            raise InputError(f"transitions[{i}] must be an object")
        for key in ("from", "profile", "to"):
            if key not in entry:
                raise InputError(f"transitions[{i}] is missing {key!r}")
        if not (isinstance(entry["from"], str) and isinstance(entry["to"], str)):
            raise InputError(f"transitions[{i}] endpoints must be strings")
        prof = entry["profile"]
        if not (
            isinstance(prof, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in prof.items())
        ):
            raise InputError(f"transitions[{i}].profile must map agent names to action names")

    raw_val = data["valuation"]
    _expect(isinstance(raw_val, dict), "valuation must be an object keyed by proposition")
    for p, sts in raw_val.items():
        if not _is_str_list(sts):
            raise InputError(f"valuation[{p!r}] must be a list of strings")

    transitions = ((entry["from"], entry["profile"], entry["to"]) for entry in raw_transitions)
    return make_model(agents, states, actions, permitted, transitions, raw_val)
