"""Multiagent transition systems: data model, validation, and JSON format.

A transition system bundles, per state:

  * a nonempty set of actions for each agent,
  * a nonempty permitted subset of those actions for each agent,
  * a mechanism relation mapping full action profiles to successor states,
    where every profile must have at least one successor (continuity),
  * a valuation assigning each proposition the set of states where it holds.

Models are treated as immutable after construction; nothing in this package
mutates them, so they are safe to share across threads. The mechanism of a
state is an ``Entries`` record of two parallel columns, its profiles and its
targets, so that a loaded model holds a few objects the garbage collector
tracks per state, not per entry (it never untracks a tuple that holds a
dict). A truth set is a
``frozenset`` of state names; ``TruthSet`` is the frozenset that
``ModelChecker.truth_set`` returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import CapacityError, InputError
from .formula import IDENTIFIER, TOP_PROP

DEFAULT_PROFILE_CAP = 10**6
PROFILE_CAP_ENV = "PERMITMC_PROFILE_CAP"
# the bookkeeping agent of the game translation, reserved as an agent name
NATURE = "__nature"

Profile = Mapping[str, str]
TransitionEntry = tuple[Profile, str]
# parallel tuples: states, and the successor union of one action at each
UnionRows = tuple[tuple[str, ...], tuple[frozenset[str], ...]]
# the defaults of a state missing from ``actions`` or ``permitted``, and of
# an agent missing from its row
_NO_ROW: Mapping[str, Any] = MappingProxyType({})
_NOT_PERMITTED: frozenset[str] = frozenset()


class Entries:
    """The mechanism entries of one state as two parallel tuples, the
    profiles and their successor states. A read-only record: ``len`` is the
    number of entries, iteration yields (profile, target) pairs, and two
    records are equal when both columns are."""

    __slots__ = ("_profiles", "_targets")

    def __init__(self, profiles: tuple[Profile, ...], targets: tuple[str, ...]) -> None:
        self._profiles = profiles
        self._targets = targets

    @property
    def profiles(self) -> tuple[Profile, ...]:
        return self._profiles

    @property
    def targets(self) -> tuple[str, ...]:
        return self._targets

    def __len__(self) -> int:
        return len(self._targets)

    def __iter__(self) -> Iterator[TransitionEntry]:
        return zip(self._profiles, self._targets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entries):
            return NotImplemented
        return self._targets == other._targets and self._profiles == other._profiles

    def __repr__(self) -> str:
        return f"Entries(profiles={self._profiles!r}, targets={self._targets!r})"


_NO_ENTRIES = Entries((), ())


@dataclass(frozen=True)
class TransitionSystem:
    agents: tuple[str, ...]
    states: tuple[str, ...]
    # state -> agent -> available actions (order preserved for determinism)
    actions: Mapping[str, Mapping[str, tuple[str, ...]]]
    # state -> agent -> permitted subset
    permitted: Mapping[str, Mapping[str, frozenset[str]]]
    # state -> its entries: parallel columns of profiles and successors
    mechanism: Mapping[str, Entries]
    # proposition -> states where it holds
    valuation: Mapping[str, frozenset[str]]

    def action_set(self, state: str, agent: str) -> tuple[str, ...]:
        return self.actions.get(state, _NO_ROW).get(agent, ())

    def permitted_set(self, state: str, agent: str) -> frozenset[str]:
        return self.permitted.get(state, _NO_ROW).get(agent, _NOT_PERMITTED)

    def entries(self, state: str) -> Entries:
        return self.mechanism.get(state, _NO_ENTRIES)

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
            profiles, targets = entries.profiles, entries.targets
            for a, sides in rows.items():
                by_action: dict[str, set[str]] = {i: set() for i in self.action_set(s, a)}
                for profile, target in zip(profiles, targets):
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
        return self.state_set.union(*(entries.targets for entries in self.mechanism.values()))


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

    Every container is copied, so the caller may change its own afterwards.
    A profile given as a plain dict that names exactly the distinct agents
    is stored as one dict shared by every entry with the same agent-ordered
    actions; every other profile gets a copy of its own. State names are
    shared as one object: every state the model stores as a mechanism source
    or target, a key of ``actions`` or ``permitted``, or a valuation member
    is the string object in ``states``, so set probes on state names succeed
    on identity without comparing characters. A name that is not in
    ``states`` stays as given.

    No invariant checking happens here; run validate_model to get a report.
    """
    agents = tuple(agents)
    states = tuple(states)
    shared = {s: s for s in states}.get
    distinct = tuple(dict.fromkeys(agents))
    size = len(distinct)
    # itemgetter of one agent gives its bare action, which keys as well as a
    # tuple; the one profile that names no agent is {}, keyed by its length
    key_of = itemgetter(*distinct) if distinct else len
    copies: dict[Any, dict[str, str]] = {}
    # source -> (profiles, targets), in the order of ``transitions``
    columns: dict[str, tuple[list[Profile], list[str]]] = {}
    for source, profile, target in transitions:
        copy = None
        # a plain dict only: a dict subclass's __missing__ could add the agent
        # that a profile misses
        if len(profile) == size and type(profile) is dict:
            try:
                key = key_of(profile)
                copy = copies.get(key)
                if copy is None:
                    copy = copies[key] = dict(profile)
            except (KeyError, TypeError):  # an agent missing; an action that is no key
                pass
        if copy is None:
            copy = dict(profile)
        column = columns.get(source)
        if column is None:
            column = columns[shared(source, source)] = ([], [])
        column[0].append(copy)
        column[1].append(shared(target, target))
    return TransitionSystem(
        agents=agents,
        states=states,
        actions={
            shared(s, s): {a: tuple(acts) for a, acts in per.items()}
            for s, per in actions.items()
        },
        permitted={
            shared(s, s): {a: frozenset(acts) for a, acts in per.items()}
            for s, per in permitted.items()
        },
        mechanism={s: Entries(tuple(p), tuple(t)) for s, (p, t) in columns.items()},
        valuation={
            p: frozenset([shared(s, s) for s in sts]) for p, sts in (valuation or {}).items()
        },
    )


# --- validation ---------------------------------------------------------------


def _violation(code: str, message: str, state: str | None = None, agent: str | None = None) -> dict:
    return {"code": code, "message": message, "state": state, "agent": agent}


def _profile_text(profile: Profile) -> str:
    return str(dict(sorted(profile.items())))


def profile_cap() -> int:
    raw = os.environ.get(PROFILE_CAP_ENV)
    if raw is None:
        return DEFAULT_PROFILE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{PROFILE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"{PROFILE_CAP_ENV} must be at least 1, got {cap}")
    return cap


def proposition_name_fault(p: str) -> tuple[str, str] | None:
    """Why no formula can refer to the proposition ``p``, as a violation code
    and its message: ``reserved-proposition`` for ``__top``, which formulas
    read as true, and ``unwritable-name`` for ``true``, ``false`` and any
    name that is not an identifier. None for a name a formula can write."""
    if p == TOP_PROP:
        return "reserved-proposition", f"proposition {p!r} is reserved: formulas read it as true"
    if p in ("true", "false") or not IDENTIFIER.fullmatch(p):
        return "unwritable-name", f"proposition {p!r} cannot be written in a formula"
    return None


def validate_model(m: TransitionSystem) -> list[dict[str, str | None]]:
    """The invariant violations of ``m`` as JSON objects; empty when ``m`` is valid.

    Violations are data, not failures: arbitrary candidate structures are
    accepted. Each distinct state and agent is read once, so a name listed
    twice is reported as a duplicate and its other violations once. A key of
    the ``actions`` or ``permitted`` table that names an undeclared state or
    agent is reported (``unknown-state-in-table``, ``unknown-agent-in-table``).
    Agent and proposition names must be identifiers a formula can write
    (``unwritable-name``); ``__nature`` is reserved as an agent name,
    ``__top`` as a proposition. The mechanism is checked per state in a few
    C-level passes, which also collect the distinct profiles that cover the
    agent set with available actions; only a state that fails a pass is
    re-read entry by entry, to word its violations. Continuity holds at a
    state when the number of those profiles equals the product of its
    per-agent action counts; the product of the available actions is
    enumerated against them only at a state where it does not, to name the
    uncovered profiles. That enumeration is guarded by a cap on the total
    number of profiles (default 10^6, override via PERMITMC_PROFILE_CAP),
    which raises CapacityError when exceeded, whether or not the model is
    valid.
    """
    cap = profile_cap()
    out: list[dict[str, str | None]] = []
    state_set = set(m.states)
    agent_set = set(m.agents)
    states = dict.fromkeys(m.states)
    agents = tuple(dict.fromkeys(m.agents))

    for name, seq, code in (("agent", m.agents, "duplicate-agent"), ("state", m.states, "duplicate-state")):
        seen: set[str] = set()
        for item in seq:
            if item in seen:
                out.append(_violation(code, f"duplicate {name} name {item!r}"))
            seen.add(item)
    for a in agents:
        if a == NATURE:
            out.append(_violation("reserved-agent", f"model declares reserved agent {a!r}", agent=a))
        elif not IDENTIFIER.fullmatch(a):
            out.append(_violation("unwritable-name", f"agent {a!r} is not an identifier", agent=a))

    # state -> number of profiles of available actions, and the available
    # action sets in agent order
    need: dict[str, int] = {}
    available: dict[str, tuple[frozenset[str], ...]] = {}
    for s in states:
        act_sets = []
        profiles = 1
        for a in agents:
            acts = m.action_set(s, a)
            profiles *= len(acts)
            act_set = frozenset(acts)
            act_sets.append(act_set)
            if not acts:
                out.append(
                    _violation("empty-actions", f"no actions for agent {a!r} at state {s!r}", s, a)
                )
            if len(act_set) != len(acts):
                out.append(
                    _violation("duplicate-action", f"duplicate action names at ({s!r}, {a!r})", s, a)
                )
            perm = m.permitted_set(s, a)
            if not perm:
                out.append(
                    _violation(
                        "empty-permitted", f"empty permitted set at ({s!r}, {a!r})", s, a
                    )
                )
            extra = perm - act_set
            if extra:
                out.append(
                    _violation(
                        "permitted-not-subset",
                        f"permitted actions {sorted(extra)} not available at ({s!r}, {a!r})",
                        s,
                        a,
                    )
                )
        need[s] = profiles
        available[s] = tuple(act_sets)
    for table, rows in (("actions", m.actions), ("permitted", m.permitted)):
        for s, row in rows.items():
            if s not in state_set:
                text = f"{table} table names unknown state {s!r}"
                out.append(_violation("unknown-state-in-table", text, s))
                continue
            for a in row:
                if a not in agent_set:
                    text = f"{table} table names unknown agent {a!r} at state {s!r}"
                    out.append(_violation("unknown-agent-in-table", text, s, a))

    total_profiles = sum(need.values())
    if total_profiles > cap:
        raise CapacityError(
            f"profile enumeration would visit {total_profiles} profiles, over the cap of {cap}"
        )

    actions_of = _actions_getter(agents)
    # state -> distinct agent-ordered action tuples of covering profiles
    # whose actions are all available there; None where they number need[s]
    covered: dict[str, set[tuple[str, ...]] | None] = {}
    for s, entries in m.mechanism.items():
        if s not in state_set:
            out.append(
                _violation("unknown-state-in-mechanism", f"transitions from unknown state {s!r}", s)
            )
            continue
        avail = available[s]
        good = _well_formed_profiles(entries, actions_of, len(agents), avail, state_set)
        if good is None:  # re-read the state entry by entry to word its violations
            good = set()
            for profile, target in entries:
                if profile.keys() != agent_set:
                    out.append(
                        _violation(
                            "malformed-profile",
                            f"profile {_profile_text(profile)} at state {s!r} "
                            "does not cover exactly the agent set",
                            s,
                        )
                    )
                else:
                    acts = actions_of(profile)
                    if acts not in good:
                        if all(map(frozenset.__contains__, avail, acts)):
                            good.add(acts)
                        else:
                            text = _profile_text(profile)
                            out.extend(
                                _violation(
                                    "malformed-profile",
                                    f"profile {text} at state {s!r} uses unavailable action "
                                    f"{act!r} of agent {a!r}",
                                    s,
                                    a,
                                )
                                for a, act, act_set in zip(agents, acts, avail)
                                if act not in act_set
                            )
                if target not in state_set:
                    out.append(
                        _violation(
                            "bad-target",
                            f"transition from {s!r} under {_profile_text(profile)} "
                            f"reaches unknown state {target!r}",
                            s,
                        )
                    )
        covered[s] = good if len(good) != need[s] else None

    for s in states:
        # need[s] is 0 where some agent has no action (reported as empty-actions).
        # Each covered tuple is a distinct one of the need[s] combinations of
        # available actions, so a full count (kept as None) leaves none
        # uncovered. Duplicate actions make combinations coincide, so such
        # states never reach the count and are enumerated.
        good = covered.get(s, ())
        if need[s] and good is not None:
            for acts in product(*(m.action_set(s, a) for a in agents)):
                if acts not in good:
                    text = _profile_text(dict(zip(agents, acts)))
                    out.append(
                        _violation("continuity", f"profile {text} at state {s!r} has no successor", s)
                    )

    for p, truth in m.valuation.items():
        fault = proposition_name_fault(p)
        if fault is not None:
            out.append(_violation(*fault))
        extra = truth - state_set
        if extra:
            out.append(
                _violation(
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


def _well_formed_profiles(
    entries: Entries,
    actions_of: Callable[[Profile], tuple[str, ...]],
    num_agents: int,
    available: tuple[frozenset[str], ...],
    state_set: set[str],
) -> set[tuple[str, ...]] | None:
    """The distinct agent-ordered action tuples of ``entries`` when each
    profile names exactly the agents, each action is available and each
    target is a state; None when any of this fails. Decided in C-level
    passes over the entries' columns, without a message."""
    profiles = entries.profiles
    try:
        good = set(map(actions_of, profiles))  # KeyError: a profile misses an agent
    except KeyError:
        return None
    if (
        all(map(num_agents.__eq__, map(len, profiles)))
        and all(map(frozenset.issuperset, available, zip(*good)))
        and state_set.issuperset(entries.targets)
    ):
        return good
    return None


# --- JSON format ----------------------------------------------------------------


def _is_str_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(str.__instancecheck__, value))


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

    The transitions are checked in a few C-level passes over all entries;
    only a document that fails one is re-read entry by entry, to name the
    first failing entry. A message is formatted only for a check that fails.
    Nothing is copied here: make_model copies every container into the
    model, with one dict per distinct profile, so the model shares nothing
    with ``data``."""
    if not isinstance(data, dict):
        raise InputError("model document must be a JSON object")
    for key in ("agents", "states", "actions", "permitted", "transitions", "valuation"):
        if key not in data:
            raise InputError(f"model document is missing the {key!r} field")
    for key in ("agents", "states"):
        if not _is_str_list(data[key]):
            raise InputError(f"{key} must be a list of strings")

    def check_table(raw: Any, what: str) -> dict[str, dict[str, list[str]]]:
        if not isinstance(raw, dict):
            raise InputError(f"{what} must be an object keyed by state")
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
    if not isinstance(raw_transitions, list):
        raise InputError("transitions must be a list")
    if not _well_formed_transitions(raw_transitions):
        # re-read entry by entry to name the first failing one
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
    if not isinstance(raw_val, dict):
        raise InputError("valuation must be an object keyed by proposition")
    for p, sts in raw_val.items():
        if not _is_str_list(sts):
            raise InputError(f"valuation[{p!r}] must be a list of strings")

    transitions = map(itemgetter("from", "profile", "to"), raw_transitions)
    return make_model(data["agents"], data["states"], actions, permitted, transitions, raw_val)


def _well_formed_transitions(raw: list) -> bool:
    """Whether every entry of ``raw`` is an object with string endpoints
    ``from`` and ``to`` and a ``profile`` object of strings to strings,
    decided in C-level passes. The keys are probed with ``dict.__contains__``,
    so no ``__missing__`` of a dict subclass runs and ``raw`` is not written."""
    if not all(map(dict.__instancecheck__, raw)):
        return False
    for key in ("from", "profile", "to"):
        if not all(map(dict.__contains__, raw, repeat(key))):
            return False
    is_str = str.__instancecheck__
    if not (
        all(map(is_str, map(itemgetter("from"), raw)))
        and all(map(is_str, map(itemgetter("to"), raw)))
    ):
        return False
    profiles = list(map(itemgetter("profile"), raw))
    return (
        all(map(dict.__instancecheck__, profiles))
        and all(map(is_str, chain.from_iterable(profiles)))
        and all(map(is_str, chain.from_iterable(map(dict.values, profiles))))
    )
