import copy
import gc
import hashlib
import json
import random
import re
from collections import defaultdict
from itertools import product
from types import MappingProxyType

import hypothesis.strategies as st
import pytest
from hypothesis import given

from permitmc.algebra import family_of
from permitmc.checker import modal_image, model_check
from permitmc.errors import CapacityError, InputError
from permitmc.formula import Modality, parse
from permitmc.generate import GenParams, random_model
from permitmc.model import TruthSet, make_model, model_from_dict, model_to_dict, validate_model

from strategies import JSON, action_unions, formulas, model_and_formulas, models


def two_agent_square(transitions, permitted=None):
    """2 agents x 2 actions at s, single successor state."""
    actions = {"s": {"a": ["1", "2"], "b": ["1", "2"]}, "t": {"a": ["1"], "b": ["1"]}}
    return make_model(
        ["a", "b"],
        ["s", "t"],
        actions=actions,
        permitted=permitted or actions,
        transitions=transitions + [("t", {"a": "1", "b": "1"}, "t")],
        valuation={},
    )


def test_fig1_is_valid(fig1):
    assert validate_model(fig1) == []


def test_empty_permitted_set_reported():
    m = two_agent_square(
        [("s", {"a": x, "b": y}, "t") for x in "12" for y in "12"],
        permitted={"s": {"a": ["1", "2"], "b": []}, "t": {"a": ["1"], "b": ["1"]}},
    )
    report = validate_model(m)
    assert any(
        v["code"] == "empty-permitted" and v["state"] == "s" and v["agent"] == "b" for v in report
    )
    assert any("empty permitted set" in v["message"] for v in report)


def test_missing_profile_named_in_continuity_violation():
    covered = [
        ("s", {"a": "1", "b": "1"}, "t"),
        ("s", {"a": "1", "b": "2"}, "t"),
        ("s", {"a": "2", "b": "1"}, "t"),
    ]
    report = validate_model(two_agent_square(covered))
    continuity = [v for v in report if v["code"] == "continuity"]
    assert len(continuity) == 1
    assert continuity[0]["message"] == "profile {'a': '2', 'b': '2'} at state 's' has no successor"
    assert continuity[0]["state"] == "s"


def test_bad_target_and_malformed_profile_reported():
    m = make_model(
        ["a"],
        ["s"],
        actions={"s": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}},
        transitions=[("s", {"a": "1"}, "nowhere"), ("s", {"a": "9"}, "s")],
        valuation={"p": ["s", "ghost"]},
    )
    codes = {v["code"] for v in validate_model(m)}
    assert {"bad-target", "malformed-profile", "valuation-unknown-state"} <= codes


def test_empty_actions_and_transitions_from_unknown_state_reported():
    m = make_model(
        ["a"],
        ["s"],
        actions={"s": {"a": []}},
        permitted={"s": {"a": []}},
        transitions=[("ghost", {"a": "1"}, "s")],
        valuation={},
    )
    assert [tuple(v.values()) for v in validate_model(m)] == [
        ("empty-actions", "no actions for agent 'a' at state 's'", "s", "a"),
        ("empty-permitted", "empty permitted set at ('s', 'a')", "s", "a"),
        ("unknown-state-in-mechanism", "transitions from unknown state 'ghost'", "ghost", None),
    ]


def test_table_keys_naming_undeclared_states_or_agents_reported():
    doc = {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"s": {"a": ["1"], "zz": ["9"]}, "ghost": {"a": ["1"]}},
        "permitted": {"s": {"a": ["1"], "yy": ["1"]}, "ghost": {"zz": ["9"]}},
        "transitions": [{"from": "s", "profile": {"a": "1"}, "to": "s"}],
        "valuation": {"p": ["s"]},
    }
    assert [tuple(v.values()) for v in validate_model(model_from_dict(doc))] == [
        ("unknown-agent-in-table", "actions table names unknown agent 'zz' at state 's'", "s", "zz"),
        ("unknown-state-in-table", "actions table names unknown state 'ghost'", "ghost", None),
        ("unknown-agent-in-table", "permitted table names unknown agent 'yy' at state 's'", "s", "yy"),
        ("unknown-state-in-table", "permitted table names unknown state 'ghost'", "ghost", None),
    ]


def test_duplicate_names_report_each_state_agent_violation_once():
    m = make_model(
        ["a", "b", "a"],
        ["s", "t", "s"],
        actions={"s": {"a": ["1", "1"]}, "t": {"a": ["1"], "b": ["1"]}},
        permitted={"s": {"a": ["1"]}, "t": {"a": ["1"], "b": ["1"]}},
        transitions=[("t", {"a": "1", "b": "1"}, "t")],
        valuation={"p": ["s"]},
    )
    assert [(v["code"], v["message"]) for v in validate_model(m)] == [
        ("duplicate-agent", "duplicate agent name 'a'"),
        ("duplicate-state", "duplicate state name 's'"),
        ("duplicate-action", "duplicate action names at ('s', 'a')"),
        ("empty-actions", "no actions for agent 'b' at state 's'"),
        ("empty-permitted", "empty permitted set at ('s', 'b')"),
    ]


def test_reserved_proposition_rejected():
    m = make_model(
        ["a"],
        ["s"],
        actions={"s": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}},
        transitions=[("s", {"a": "1"}, "s")],
        valuation={"__top": ["s"]},
    )
    assert any(v["code"] == "reserved-proposition" for v in validate_model(m))


def one_state_model(agent, prop):
    return make_model(
        [agent],
        ["s"],
        actions={"s": {agent: ["1"]}},
        permitted={"s": {agent: ["1"]}},
        transitions=[("s", {agent: "1"}, "s")],
        valuation={prop: ["s"]},
    )


@pytest.mark.parametrize(
    "agent, prop, code, message",
    [
        ("x y", "p", "unwritable-name", "agent 'x y' is not an identifier"),
        ("1a", "p", "unwritable-name", "agent '1a' is not an identifier"),
        ("", "p", "unwritable-name", "agent '' is not an identifier"),
        ("a", "p q", "unwritable-name", "proposition 'p q' cannot be written in a formula"),
        ("a", "p-1", "unwritable-name", "proposition 'p-1' cannot be written in a formula"),
        ("a", "true", "unwritable-name", "proposition 'true' cannot be written in a formula"),
        ("a", "false", "unwritable-name", "proposition 'false' cannot be written in a formula"),
        ("__nature", "p", "reserved-agent", "model declares reserved agent '__nature'"),
    ],
    ids=["space-agent", "digit-agent", "empty-agent", "space-prop", "dash-prop", "true-prop",
         "false-prop", "nature-agent"],
)
def test_names_no_formula_can_address_are_violations(agent, prop, code, message):
    report = validate_model(one_state_model(agent, prop))
    assert [(v["code"], v["message"]) for v in report] == [(code, message)]


@pytest.mark.parametrize(
    "agent, prop", [("_a", "p_1"), ("A9", "__nature"), ("true", "WA"), ("nature", "Z")]
)
def test_names_that_validate_parse_back(agent, prop):
    m = one_state_model(agent, prop)
    assert validate_model(m) == []
    assert model_check(m, parse(f"WA[{agent}] {prop}")) == {"s"}


def test_empty_state_set_is_valid():
    m = make_model(["a"], [], actions={}, permitted={}, transitions=[], valuation={})
    assert validate_model(m) == []
    assert model_check(m, parse("WA[a] p")) == frozenset()


def test_profile_cap_guard(monkeypatch):
    actions = {"s": {"a": [str(i) for i in range(40)], "b": [str(i) for i in range(40)]}}
    m = make_model(
        ["a", "b"],
        ["s"],
        actions=actions,
        permitted=actions,
        transitions=[],
        valuation={},
    )
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "100")
    with pytest.raises(CapacityError):
        validate_model(m)


def test_profile_cap_env_override(monkeypatch):
    actions = {"s": {"a": ["1", "2"], "b": ["1", "2"]}}
    m = make_model(["a", "b"], ["s"], actions, actions, [], {})
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "3")
    with pytest.raises(CapacityError):
        validate_model(m)
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "1000")
    assert any(v["code"] == "continuity" for v in validate_model(m))


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_profile_cap_below_one_is_refused(monkeypatch, fig1, cap):
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", cap)
    message = f"^PERMITMC_PROFILE_CAP must be at least 1, got {cap}$"
    with pytest.raises(InputError, match=message):
        validate_model(fig1)
    with pytest.raises(InputError, match=message):
        random_model(GenParams(seed=1))


def test_profile_cap_that_is_no_integer_is_refused(monkeypatch, fig1):
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "abc")
    with pytest.raises(InputError, match="^PERMITMC_PROFILE_CAP must be an integer, got 'abc'$"):
        validate_model(fig1)


def test_successors_deterministic_model_singletons():
    m = random_model(GenParams(seed=11, num_states=4, num_agents=2, max_actions=2,
                               branching=1))
    for s in m.states:
        targets = {}
        for profile, t in m.entries(s):
            targets.setdefault(tuple(sorted(profile.items())), set()).add(t)
        assert all(len(ts) == 1 for ts in targets.values())


def test_profiles_with_action_fig1(fig1):
    entries = [(dict(p), t) for p, t in fig1.entries("s") if p["a"] == "2"]
    assert ({"a": "2", "b": "1"}, "t") in entries
    assert "t" in action_unions(fig1, "s", "a")["2"]


def test_successor_union_spans_every_counter_action():
    # k entries per profile and n counter-actions of b give k*n entries for a
    # fixed action of a, which share k successors.
    k, n = 3, 4
    states = [f"t{j}" for j in range(k)] + ["s"]
    actions = {s: {"a": ["1"], "b": ["1"]} for s in states}
    actions["s"] = {"a": ["i"], "b": [str(j) for j in range(n)]}
    transitions = []
    for j in range(n):
        for target in range(k):
            transitions.append(("s", {"a": "i", "b": str(j)}, f"t{target}"))
    for j in range(k):
        transitions.append((f"t{j}", {"a": "1", "b": "1"}, f"t{j}"))
    m = make_model(["a", "b"], states, actions, actions, transitions, {})
    assert validate_model(m) == []
    assert action_unions(m, "s", "a") == {"i": {f"t{j}" for j in range(k)}}
    assert action_unions(m, "s", "b") == {str(j): {f"t{j}" for j in range(k)} for j in range(n)}


def test_truth_set_operations(fig1):
    ts = model_check(fig1, parse("p"))
    assert isinstance(ts, TruthSet) and ts == {"u"}
    assert ts.members == {"u"} and ts.sorted_members() == ["u"]
    assert fig1.state_set - ts == {"s", "t"}
    assert ts | (fig1.state_set - ts) == fig1.state_set
    with pytest.raises(InputError, match=re.escape("outside the state universe: ['zz']")):
        family_of(fig1, [["u"], ["s", "zz"]])


@given(models())
def test_generated_models_have_successors_everywhere(m):
    assert validate_model(m) == []
    for s in m.states:
        covered = {tuple(sorted(profile.items())) for profile, _ in m.entries(s)}
        for combo in product(*(m.action_set(s, a) for a in m.agents)):
            assert tuple(sorted(zip(m.agents, combo))) in covered
        for a in m.agents:
            unions = action_unions(m, s, a)
            assert set(unions) == set(m.action_set(s, a))
            assert all(unions.values())


@given(model_and_formulas(max_states=3, max_leaves=5))
def test_structural_equality_gives_identical_truth_sets(pair):
    m, f = pair
    clone = model_from_dict(model_to_dict(m))
    assert clone == m
    assert validate_model(clone) == validate_model(m)
    assert model_check(clone, f) == model_check(m, f)


def test_json_roundtrip(fig1):
    again = model_from_dict(json.loads(json.dumps(model_to_dict(fig1))))
    assert again == fig1


# The first five keep their place: each case's test id is its position.
SHAPE_ERRORS = {
    (lambda d: d.pop("agents")): "model document is missing the 'agents' field",
    (lambda d: d.update(states="nope")): "states must be a list of strings",
    (lambda d: d["transitions"].append({"from": "s"})): "transitions[6] is missing 'profile'",
    (lambda d: d.update(transitions={"not": "a list"})): "transitions must be a list",
    (lambda d: d["actions"].update(s="nope")): "actions['s'] must be an object keyed by agent",
    (lambda d: d["transitions"].__setitem__(3, "nope")): "transitions[3] must be an object",
    (lambda d: d["transitions"][2].pop("to")): "transitions[2] is missing 'to'",
    (lambda d: d["transitions"][4].update({"from": 7})): "transitions[4] endpoints must be strings",
    (lambda d: d["transitions"][5]["profile"].update(b=1)):
        "transitions[5].profile must map agent names to action names",
    (lambda d: d.update(valuation=["p"])): "valuation must be an object keyed by proposition",
    (lambda d: d["valuation"].update(p="u")): "valuation['p'] must be a list of strings",
}


@pytest.mark.parametrize("mutilate", list(SHAPE_ERRORS))
def test_model_from_dict_shape_errors(fig1, mutilate):
    doc = model_to_dict(fig1)
    mutilate(doc)
    with pytest.raises(InputError, match=f"^{re.escape(SHAPE_ERRORS[mutilate])}$"):
        model_from_dict(doc)


def test_model_from_dict_reports_the_first_failing_check(fig1):
    doc = model_to_dict(fig1)
    doc["transitions"][1] = {"from": 1, "to": "t"}  # missing profile comes first
    doc["actions"]["t"]["b"] = ["1", 2]
    with pytest.raises(InputError, match=re.escape("actions['t']['b'] must be a list of strings")):
        model_from_dict(doc)
    doc["actions"]["t"]["b"] = ["1"]
    with pytest.raises(InputError, match=re.escape("transitions[1] is missing 'profile'")):
        model_from_dict(doc)


# the SHAPE_ERRORS cases that fault one entry of the transitions
ENTRY_ERRORS = {k: v for k, v in SHAPE_ERRORS.items() if v.startswith("transitions[")}


def _large_doc():
    """A valid generated document of well over 1,000 transitions."""
    params = GenParams(seed=5, num_agents=3, num_states=100, max_actions=3, branching=2)
    doc = model_to_dict(random_model(params))
    assert len(doc["transitions"]) >= 1000
    return doc


@pytest.mark.parametrize("mutilate", list(ENTRY_ERRORS))
def test_entry_shape_errors_at_a_late_index(fig1, mutilate):
    doc = _large_doc()
    offset = len(doc["transitions"])
    tail = model_to_dict(fig1)
    mutilate(tail)
    doc["transitions"] += tail["transitions"]
    index, rest = re.fullmatch(r"transitions\[(\d+)\](.*)", ENTRY_ERRORS[mutilate]).groups()
    message = f"transitions[{offset + int(index)}]{rest}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        model_from_dict(doc)


def test_of_two_bad_entries_the_lower_index_is_named():
    doc = _large_doc()
    entries = doc["transitions"]
    entries[900] = "nope"  # found by the first pass over the entries
    entries[400]["profile"] = {"a": 1}  # found by the last
    with pytest.raises(InputError, match=re.escape("transitions[400].profile must map")):
        model_from_dict(doc)
    del entries[700]["to"]
    entries[300]["from"] = None
    with pytest.raises(InputError, match=re.escape("transitions[300] endpoints must be strings")):
        model_from_dict(doc)


def test_a_late_target_that_is_no_string_is_named():
    doc = _large_doc()  # SHAPE_ERRORS faults only a source
    last = len(doc["transitions"]) - 1
    doc["transitions"][last]["to"] = 5
    with pytest.raises(InputError, match=re.escape(f"transitions[{last}] endpoints must be")):
        model_from_dict(doc)


def test_missing_key_of_a_defaultdict_entry_is_named_and_not_added(fig1):
    doc = model_to_dict(fig1)
    entry = doc["transitions"][3] = defaultdict(str, doc["transitions"][3])
    target = entry.pop("to")
    with pytest.raises(InputError, match=re.escape("transitions[3] is missing 'to'")):
        model_from_dict(doc)
    assert "to" not in entry
    entry["to"] = target  # complete again, the subclass is read as an object
    assert model_from_dict(doc) == fig1


def test_zero_agent_models_validate():
    entries = [("s", {}, "t"), ("t", {}, "t")]
    assert validate_model(make_model([], ["s", "t"], {}, {}, entries)) == []
    report = validate_model(make_model([], ["s", "t"], {}, {}, entries[:1]))
    assert [v["message"] for v in report] == ["profile {} at state 't' has no successor"]


def test_model_owns_its_containers(fig1):
    doc = model_to_dict(fig1)
    m = model_from_dict(doc)
    doc["transitions"][0]["profile"]["a"] = "9"
    doc["actions"]["s"]["a"].append("9")
    assert m == fig1


def _state_references(m):
    """Every state name the model stores outside ``states``."""
    yield from m.mechanism
    yield from (target for entries in m.mechanism.values() for _, target in entries)
    yield from m.actions
    yield from m.permitted
    yield from (s for members in m.valuation.values() for s in members)


def _fresh_names_model(n):
    """make_model on names that are equal to the states but other objects."""
    states = [f"s{i}" for i in range(n)]
    per = {f"s{i}": {"a": ["1", "2"]} for i in range(n)}
    transitions = [(f"s{i}", {"a": act}, f"s{(i + int(act)) % n}") for i in range(n) for act in "12"]
    return make_model(["a"], states, per, per, transitions, {"p": [f"s{i}" for i in range(0, n, 2)]})


def test_state_names_are_shared_as_one_object():
    rng = random.Random(12)
    decoded = [
        model_from_dict(json.loads(json.dumps(model_to_dict(random_model(GenParams(
            seed=rng.getrandbits(32), num_agents=rng.randint(1, 3), num_states=rng.randint(2, 12),
            max_actions=rng.randint(1, 3), num_props=2, permitted_density=0.6, branching=2,
        ))))))
        for _ in range(30)
    ]
    for m in decoded + [_fresh_names_model(7)]:
        names = {id(s) for s in m.states}
        refs = list(_state_references(m))
        assert refs and all(id(s) in names for s in refs)
    # the decoded inputs did hold copies: a name decoded twice is two objects
    doc = json.loads('{"states": ["s0"], "to": "s0"}')
    assert doc["to"] is not doc["states"][0]


# check-large's three shapes (perfbench/workload_check_large.py) at smoke size
CHECK_LARGE_SMOKE = (
    {"num_states": 12, "num_agents": 4, "max_actions": 5, "branching": 2},
    {"num_states": 40, "num_agents": 3, "max_actions": 3, "branching": 2},
    {"num_states": 20, "num_agents": 2, "max_actions": 3, "branching": 3},
)


@pytest.mark.parametrize("k", range(len(CHECK_LARGE_SMOKE)))
def test_a_loaded_model_keeps_no_tracked_object_per_entry(k):
    generated = random_model(
        GenParams(seed=7919 + k, num_props=3, permitted_density=0.6, **CHECK_LARGE_SMOKE[k])
    )
    doc = model_to_dict(generated)
    for m in (generated, model_from_dict(json.loads(json.dumps(doc)))):
        gc.collect()
        assert not any(gc.is_tracked(entries.targets) for entries in m.mechanism.values())
        profiles = [p for entries in m.mechanism.values() for p in entries.profiles]
        distinct = {tuple(map(p.get, m.agents)) for p in profiles}
        assert len({id(p) for p in profiles}) == len(distinct) < len(profiles)
        assert sum(len(v) for v in m.mechanism.values()) == len(doc["transitions"])


def _awkward_inputs():
    """make_model arguments whose profiles the sharing must not conflate: a
    duplicated agent, keys in another order, a missing, an added and a
    foreign agent, a defaultdict that would fill in the missing agent, and a
    read-only mapping."""
    actions = {"s": {"a": ["1", "2"], "b": ["1"]}, "t": {"a": ["1"], "b": ["1"]}}
    transitions = [
        ("s", {"a": "1", "b": "1"}, "s"),
        ("s", {"b": "1", "a": "1"}, "t"),
        ("s", {"a": "2"}, "t"),
        ("s", {"a": "2", "b": "1", "c": "1"}, "t"),
        ("s", {"a": "2", "zz": "1"}, "s"),
        ("s", defaultdict(lambda: "1", {"a": "2", "zz": "1"}), "t"),
        ("t", MappingProxyType({"a": "1", "b": "1"}), "t"),
        ("t", {"a": "1", "b": "1"}, "s"),
        ("s", {"a": "2", "b": "1"}, "ghost"),
    ]
    return ["a", "b", "a"], ["s", "t"], actions, actions, transitions, {"p": ["s"]}


def test_profile_sharing_keeps_awkward_profiles_apart():
    inputs = _awkward_inputs()
    transitions = inputs[4]
    plain = [(s, dict(profile), t) for s, profile, t in transitions]
    pristine = make_model(*copy.deepcopy(inputs[:4]), plain, inputs[5])
    m = make_model(*inputs)
    assert m == pristine
    assert "b" not in transitions[5][1]  # the defaultdict filled in nothing
    got = [(s, profile, t) for s in m.mechanism for profile, t in m.entries(s)]
    want = sorted(transitions, key=lambda entry: entry[0])  # grouped by source, stable
    assert [(s, dict(p), t) for s, p, t in want] == got
    assert [v["message"] for v in validate_model(m)] == [
        "duplicate agent name 'a'",
        "profile {'a': '2'} at state 's' does not cover exactly the agent set",
        "profile {'a': '2', 'b': '1', 'c': '1'} at state 's' does not cover exactly the agent set",
        "profile {'a': '2', 'zz': '1'} at state 's' does not cover exactly the agent set",
        "profile {'a': '2', 'zz': '1'} at state 's' does not cover exactly the agent set",
        "transition from 's' under {'a': '2', 'b': '1'} reaches unknown state 'ghost'",
    ]
    # the two orders of one profile share a copy, which is no input object
    first, reordered = m.entries("s").profiles[:2]
    assert first is reordered
    assert all(p is not q for q in m.entries("s").profiles for _, p, _ in transitions)
    for _, profile, _ in transitions:
        if isinstance(profile, dict):
            profile["a"] = "9"
            profile["new"] = "9"
    inputs[2]["s"]["a"].append("9")
    assert m == pristine


# --- validation on a seeded corpus of broken models ---------------------------


def _mutate(doc: dict, kind: str, rng: random.Random) -> None:
    entries = doc["transitions"]
    if not entries:
        return
    entry = rng.choice(entries)
    agent = rng.choice(sorted(entry["profile"]) or ["a"])
    if kind == "drop-entry":
        entries.remove(entry)
    elif kind == "unknown-target":
        entry["to"] = "nowhere"
    elif kind == "unknown-agent":
        entry["profile"]["zz"] = "1"
    elif kind == "unavailable-action":
        entry["profile"][agent] = "9"
    elif kind == "missing-agent":
        entry["profile"].pop(agent, None)
    elif kind == "renamed-agent":
        entry["profile"]["zz"] = entry["profile"].pop(agent, "1")
    elif kind == "duplicate-agent":
        doc["agents"].append(rng.choice(doc["agents"]))
    elif kind == "duplicate-action":
        acts = doc["actions"][rng.choice(doc["states"])][rng.choice(doc["agents"])]
        if acts:  # a no-actions mutation may have emptied it
            acts.append(rng.choice(acts))
    elif kind == "permitted-unavailable":
        doc["permitted"][rng.choice(doc["states"])][rng.choice(doc["agents"])].append("9")
    elif kind == "duplicate-state":
        doc["states"].append(rng.choice(doc["states"]))
    elif kind == "second-successor":
        entries.append({**entry, "profile": dict(entry["profile"]), "to": rng.choice(doc["states"])})
    elif kind == "no-actions":
        state, idle = rng.choice(doc["states"]), rng.choice(doc["agents"])
        doc["actions"][state][idle], doc["permitted"][state][idle] = [], []
        entries[:] = [e for e in entries if e["from"] != state]


MUTATIONS = (
    "drop-entry",
    "unknown-target",
    "unknown-agent",
    "unavailable-action",
    "missing-agent",
    "renamed-agent",
    "duplicate-agent",
    "duplicate-action",
)


# the mutations that bear on the successor-union table
TABLE_MUTATIONS = (
    "drop-entry",
    "missing-agent",
    "unavailable-action",
    "permitted-unavailable",
    "duplicate-state",
    "duplicate-action",
    "second-successor",
)


def mutated_models(seed: int, count: int, kinds=MUTATIONS):
    """Generated models, each with zero to three seeded mutations."""
    rng = random.Random(seed)
    for i in range(count):
        params = GenParams(
            seed=rng.getrandbits(32),
            num_agents=rng.randint(1, 3),
            num_states=rng.randint(1, 5),
            max_actions=rng.randint(1, 3),
            permitted_density=0.6,
            branching=rng.choice((1, 2)),
        )
        doc = model_to_dict(random_model(params))
        for _ in range(i % 4):
            _mutate(doc, rng.choice(kinds), rng)
        yield model_from_dict(doc)


EVERY_MUTATION = tuple(dict.fromkeys((*MUTATIONS, *TABLE_MUTATIONS, "no-actions")))


def test_validation_reports_pinned_on_2400_mutated_models_of_every_kind():
    # Digest of validate_model's reports, recorded before the mechanism pass
    # was decided in C-level passes; message, code and order are pinned.
    digest = hashlib.sha256()
    invalid = 0
    for m in mutated_models(seed=28, count=2400, kinds=EVERY_MUTATION):
        report = validate_model(m)
        invalid += bool(report)
        digest.update(json.dumps(report).encode())
    assert invalid == 1728
    assert digest.hexdigest() == "f1448a859a83ac55321f9a69e2a5d93a3723e1a8222906576740774e2c883444"


def _uncovered_by_brute_force(m):
    """(state, continuity message) for every profile of available actions
    with no entry of an equal dict, at each distinct state over the distinct
    agents."""
    out = []
    agents = list(dict.fromkeys(m.agents))
    for s in dict.fromkeys(m.states):
        for combo in product(*(m.action_set(s, a) for a in agents)):
            profile = dict(zip(agents, combo))
            if not any(dict(p) == profile for p, _ in m.entries(s)):
                key = dict(sorted(profile.items()))
                out.append((s, f"profile {key} at state {s!r} has no successor"))
    return out


def test_continuity_matches_brute_force_on_mutated_corpus():
    invalid = 0
    for m in mutated_models(seed=3, count=240):
        report = validate_model(m)
        invalid += bool(report)
        got = [(v["state"], v["message"]) for v in report if v["code"] == "continuity"]
        assert got == _uncovered_by_brute_force(m)
    assert invalid > 120


def _modal_by_brute_force(m, kind, agent, psi):
    """The README rule for unvalidated models, read off the raw entries: an
    action's union takes the entries whose profile gives the agent that
    action, and only available actions are tested."""
    ensure = kind in (Modality.WE, Modality.SE)
    out = set()
    for s in m.states:
        permitted = m.permitted_set(s, agent)
        weak_side, strong_side = [], []
        for i in m.action_set(s, agent):
            union = {t for profile, t in m.entries(s) if profile.get(agent) == i}
            passes = union <= psi if ensure else bool(union & psi)
            (weak_side if i in permitted else strong_side).append(passes)
        if kind in (Modality.WA, Modality.WE):
            holds = any(weak_side)
        else:
            holds = not any(strong_side)
        if holds:
            out.add(s)
    return out


def test_modal_image_matches_brute_force_on_mutated_corpus():
    rng = random.Random(8)
    invalid = images = 0
    for m in mutated_models(seed=4, count=200, kinds=TABLE_MUTATIONS):
        invalid += bool(validate_model(m))
        for _ in range(3):
            psi = frozenset(s for s in m.states if rng.random() < 0.5)
            for agent in m.agents:
                for kind in Modality:
                    got = modal_image(m, kind, agent, psi)
                    assert got <= m.state_set
                    assert got == _modal_by_brute_force(m, kind, agent, psi)
                    images += 1
        with pytest.raises(InputError, match="^unknown agent 'zz'$"):
            modal_image(m, Modality.SA, "zz", psi)
    assert invalid > 100 and images > 4000


MODEL_KEYS = ("agents", "states", "actions", "permitted", "transitions", "valuation")


@st.composite
def near_models(draw):
    """fig-sized model documents with one field or one entry replaced."""
    doc = model_to_dict(draw(models(max_states=3)))
    key = draw(st.sampled_from(MODEL_KEYS))
    if key == "transitions" and doc["transitions"] and draw(st.booleans()):
        i = draw(st.integers(0, len(doc["transitions"]) - 1))
        doc["transitions"][i] = draw(JSON | st.fixed_dictionaries(
            {"from": JSON | st.sampled_from(doc["states"]), "profile": JSON, "to": JSON}
        ))
    else:
        doc[key] = draw(JSON)
    return doc


@given(JSON | st.fixed_dictionaries({k: JSON for k in MODEL_KEYS}) | near_models())
def test_arbitrary_json_fails_only_with_input_error(doc):
    try:
        m = model_from_dict(doc)
    except InputError:
        return
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PERMITMC_PROFILE_CAP", "1000")
            report = validate_model(m)
    except CapacityError:
        return
    assert isinstance(report, list)
