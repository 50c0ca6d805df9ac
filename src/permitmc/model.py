"""Multiagent transition systems: data model, validation, and JSON format.

A transition system bundles, per state:

  * a nonempty set of actions for each agent,
  * a nonempty permitted subset of those actions for each agent,
  * a mechanism relation mapping full action profiles to successor states,
    where every profile must have at least one successor (continuity),
  * a valuation assigning each proposition the set of states where it holds.

Models are treated as immutable after construction; nothing in this package
mutates them, so they are safe to share across threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Any, Iterable, Iterator, Mapping

from .errors import CapacityError, InputError
from .formula import TOP_PROP

DEFAULT_PROFILE_CAP = 10**6
PROFILE_CAP_ENV = "PERMITMC_PROFILE_CAP"

Profile = Mapping[str, str]
TransitionEntry = tuple[Profile, str]
ActionUnions = tuple[frozenset[str], ...]


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
    def successor_unions(self) -> dict[str, dict[str, tuple[ActionUnions, ActionUnions]]]:
        """state -> agent -> (successor unions of the permitted available
        actions, successor unions of the other available actions).

        The union of an action is the set of successors of the mechanism
        entries whose profile assigns that action to the agent. Entries whose
        profile misses the agent or gives it an unavailable action count for
        none of its actions. Built once per model; models are immutable.
        """
        table = {}
        for s in self.states:
            entries = self.entries(s)
            row = table[s] = {}
            for a in self.agents:
                unions: dict[str, set[str]] = {i: set() for i in self.action_set(s, a)}
                for profile, target in entries:
                    u = unions.get(profile.get(a))
                    if u is not None:
                        u.add(target)
                allowed = self.permitted_set(s, a)
                row[a] = (
                    tuple(frozenset(u) for i, u in unions.items() if i in allowed),
                    tuple(frozenset(u) for i, u in unions.items() if i not in allowed),
                )
        return table


@dataclass(frozen=True)
class TruthSet:
    """A set of states of one model, carrying the state universe so that
    complements are well-defined."""

    universe: tuple[str, ...]
    members: frozenset[str]

    def __post_init__(self) -> None:
        extra = self.members - set(self.universe)
        if extra:
            raise InputError(f"truth set members outside the state universe: {sorted(extra)}")

    def __contains__(self, state: str) -> bool:
        return state in self.members

    def __iter__(self) -> Iterator[str]:
        return iter(self.sorted_members())

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[str]:
        return sorted(self.members)

    def complement(self) -> "TruthSet":
        return TruthSet(self.universe, frozenset(self.universe) - self.members)

    def union(self, other: "TruthSet") -> "TruthSet":
        return TruthSet(self.universe, self.members | other.members)

    def intersection(self, other: "TruthSet") -> "TruthSet":
        return TruthSet(self.universe, self.members & other.members)

    def is_full(self) -> bool:
        return self.members == frozenset(self.universe)

    def is_empty(self) -> bool:
        return not self.members


def truth_set(model: TransitionSystem, members: Iterable[str]) -> TruthSet:
    return TruthSet(model.states, frozenset(members))


def full_set(model: TransitionSystem) -> TruthSet:
    return TruthSet(model.states, frozenset(model.states))


def empty_set(model: TransitionSystem) -> TruthSet:
    return TruthSet(model.states, frozenset())


def make_model(
    agents: Iterable[str],
    states: Iterable[str],
    actions: Mapping[str, Mapping[str, Iterable[str]]],
    permitted: Mapping[str, Mapping[str, Iterable[str]]],
    transitions: Iterable[tuple[str, Mapping[str, str], str]],
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> TransitionSystem:
    """Normalize plain containers into a TransitionSystem.

    No invariant checking happens here; run validate_model to get a report.
    """
    mechanism: dict[str, list[TransitionEntry]] = {}
    for source, profile, target in transitions:
        mechanism.setdefault(source, []).append((dict(profile), target))
    return TransitionSystem(
        agents=tuple(agents),
        states=tuple(states),
        actions={s: {a: tuple(acts) for a, acts in per.items()} for s, per in actions.items()},
        permitted={
            s: {a: frozenset(acts) for a, acts in per.items()} for s, per in permitted.items()
        },
        mechanism={s: tuple(entries) for s, entries in mechanism.items()},
        valuation={p: frozenset(sts) for p, sts in (valuation or {}).items()},
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
    accepted. Only the continuity check is guarded by a profile-count cap
    (default 10^6, override via PERMITMC_PROFILE_CAP), which raises
    CapacityError when exceeded.
    """
    cap = profile_cap() if cap is None else cap
    out: list[Violation] = []
    state_set = set(m.states)

    for name, seq, code in (("agent", m.agents, "duplicate-agent"), ("state", m.states, "duplicate-state")):
        seen: set[str] = set()
        for item in seq:
            if item in seen:
                out.append(Violation(code, f"duplicate {name} name {item!r}"))
            seen.add(item)

    total_profiles = 0
    for s in m.states:
        for a in m.agents:
            acts = m.action_set(s, a)
            if not acts:
                out.append(
                    Violation("empty-actions", f"no actions for agent {a!r} at state {s!r}", s, a)
                )
            if len(set(acts)) != len(acts):
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
            extra = perm - set(acts)
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
        total_profiles += math.prod(counts) if all(counts) else 0

    if total_profiles > cap:
        raise CapacityError(
            f"profile enumeration would visit {total_profiles} profiles, over the cap of {cap}"
        )

    for s, entries in m.mechanism.items():
        if s not in state_set:
            out.append(
                Violation("unknown-state-in-mechanism", f"transitions from unknown state {s!r}", s)
            )
            continue
        for profile, target in entries:
            key = _profile_key(profile)
            if set(profile) != set(m.agents):
                out.append(
                    Violation(
                        "malformed-profile",
                        f"profile {dict(key)} at state {s!r} does not cover exactly the agent set",
                        s,
                        profile=key,
                    )
                )
            else:
                bad = [a for a in m.agents if profile[a] not in m.action_set(s, a)]
                for a in bad:
                    out.append(
                        Violation(
                            "malformed-profile",
                            f"profile {dict(key)} at state {s!r} uses unavailable action "
                            f"{profile[a]!r} of agent {a!r}",
                            s,
                            a,
                            key,
                        )
                    )
            if target not in state_set:
                out.append(
                    Violation(
                        "bad-target",
                        f"transition from {s!r} under {dict(key)} reaches unknown state {target!r}",
                        s,
                        profile=key,
                    )
                )

    for s in m.states:
        per_agent = [m.action_set(s, a) for a in m.agents]
        if not all(per_agent):
            continue  # already reported as empty-actions; product is empty
        covered = {
            _profile_key(profile)
            for profile, _ in m.entries(s)
            if set(profile) == set(m.agents)
        }
        for combo in product(*per_agent):
            profile = dict(zip(m.agents, combo))
            key = _profile_key(profile)
            if key not in covered:
                out.append(
                    Violation(
                        "continuity",
                        f"profile {dict(key)} at state {s!r} has no successor",
                        s,
                        profile=key,
                    )
                )

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


def is_valid(m: TransitionSystem, cap: int | None = None) -> bool:
    return not validate_model(m, cap)


def is_deterministic(m: TransitionSystem) -> bool:
    """True when every action profile has exactly one successor."""
    for s in m.states:
        seen: dict[tuple[tuple[str, str], ...], set[str]] = {}
        for profile, target in m.entries(s):
            seen.setdefault(_profile_key(profile), set()).add(target)
        if any(len(ts) != 1 for ts in seen.values()):
            return False
    return True


# --- queries -------------------------------------------------------------------


def _require_profile(m: TransitionSystem, s: str, profile: Profile) -> dict[str, str]:
    if s not in set(m.states):
        raise InputError(f"unknown state {s!r}")
    profile = dict(profile)
    if set(profile) != set(m.agents):
        raise InputError(f"profile {profile} does not cover exactly the agent set")
    for a in m.agents:
        if profile[a] not in m.action_set(s, a):
            raise InputError(f"action {profile[a]!r} of agent {a!r} unavailable at state {s!r}")
    return profile


def successors(m: TransitionSystem, s: str, profile: Profile) -> frozenset[str]:
    """All successors of ``s`` under ``profile``; nonempty for valid models."""
    profile = _require_profile(m, s, profile)
    return frozenset(t for entry, t in m.entries(s) if dict(entry) == profile)


def profiles_with_action(
    m: TransitionSystem, s: str, agent: str, action: str
) -> Iterator[TransitionEntry]:
    """Mechanism entries at ``s`` whose profile assigns ``action`` to ``agent``."""
    if s not in set(m.states):
        raise InputError(f"unknown state {s!r}")
    if agent not in m.agents:
        raise InputError(f"unknown agent {agent!r}")
    if action not in m.action_set(s, agent):
        raise InputError(f"action {action!r} of agent {agent!r} unavailable at state {s!r}")
    for profile, target in m.entries(s):
        if profile.get(agent) == action:
            yield profile, target


# --- JSON format ----------------------------------------------------------------


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _str_list(value: Any, what: str) -> list[str]:
    _expect(isinstance(value, list) and all(isinstance(x, str) for x in value), f"{what} must be a list of strings")
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
    semantic problems are left for validate_model to report."""
    _expect(isinstance(data, dict), "model document must be a JSON object")
    for key in ("agents", "states", "actions", "permitted", "transitions", "valuation"):
        _expect(key in data, f"model document is missing the {key!r} field")
    agents = _str_list(data["agents"], "agents")
    states = _str_list(data["states"], "states")

    def decode_table(raw: Any, what: str) -> dict[str, dict[str, list[str]]]:
        _expect(isinstance(raw, dict), f"{what} must be an object keyed by state")
        table: dict[str, dict[str, list[str]]] = {}
        for s, per in raw.items():
            _expect(isinstance(per, dict), f"{what}[{s!r}] must be an object keyed by agent")
            table[s] = {a: _str_list(acts, f"{what}[{s!r}][{a!r}]") for a, acts in per.items()}
        return table

    actions = decode_table(data["actions"], "actions")
    permitted = decode_table(data["permitted"], "permitted")

    _expect(isinstance(data["transitions"], list), "transitions must be a list")
    transitions: list[tuple[str, dict[str, str], str]] = []
    for i, entry in enumerate(data["transitions"]):
        _expect(isinstance(entry, dict), f"transitions[{i}] must be an object")
        for key in ("from", "profile", "to"):
            _expect(key in entry, f"transitions[{i}] is missing {key!r}")
        _expect(isinstance(entry["from"], str) and isinstance(entry["to"], str),
                f"transitions[{i}] endpoints must be strings")
        prof = entry["profile"]
        _expect(
            isinstance(prof, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in prof.items()),
            f"transitions[{i}].profile must map agent names to action names",
        )
        transitions.append((entry["from"], dict(prof), entry["to"]))

    raw_val = data["valuation"]
    _expect(isinstance(raw_val, dict), "valuation must be an object keyed by proposition")
    valuation = {p: _str_list(sts, f"valuation[{p!r}]") for p, sts in raw_val.items()}

    return make_model(agents, states, actions, permitted, transitions, valuation)
