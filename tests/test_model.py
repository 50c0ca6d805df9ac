import json
import random
import re
from itertools import product

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
        v.code == "empty-permitted" and v.state == "s" and v.agent == "b" for v in report
    )
    assert any("empty permitted set" in v.message for v in report)


def test_missing_profile_named_in_continuity_violation():
    covered = [
        ("s", {"a": "1", "b": "1"}, "t"),
        ("s", {"a": "1", "b": "2"}, "t"),
        ("s", {"a": "2", "b": "1"}, "t"),
    ]
    report = validate_model(two_agent_square(covered))
    continuity = [v for v in report if v.code == "continuity"]
    assert len(continuity) == 1
    assert continuity[0].profile == (("a", "2"), ("b", "2"))
    assert continuity[0].state == "s"


def test_bad_target_and_malformed_profile_reported():
    m = make_model(
        ["a"],
        ["s"],
        actions={"s": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}},
        transitions=[("s", {"a": "1"}, "nowhere"), ("s", {"a": "9"}, "s")],
        valuation={"p": ["s", "ghost"]},
    )
    codes = {v.code for v in validate_model(m)}
    assert {"bad-target", "malformed-profile", "valuation-unknown-state"} <= codes


def test_reserved_proposition_rejected():
    m = make_model(
        ["a"],
        ["s"],
        actions={"s": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}},
        transitions=[("s", {"a": "1"}, "s")],
        valuation={"__top": ["s"]},
    )
    assert any(v.code == "reserved-proposition" for v in validate_model(m))


def test_empty_state_set_is_valid():
    m = make_model(["a"], [], actions={}, permitted={}, transitions=[], valuation={})
    assert validate_model(m) == []
    assert model_check(m, parse("WA[a] p")) == frozenset()


def test_profile_cap_guard():
    actions = {"s": {"a": [str(i) for i in range(40)], "b": [str(i) for i in range(40)]}}
    m = make_model(
        ["a", "b"],
        ["s"],
        actions=actions,
        permitted=actions,
        transitions=[],
        valuation={},
    )
    with pytest.raises(CapacityError):
        validate_model(m, cap=100)


def test_profile_cap_env_override(monkeypatch):
    actions = {"s": {"a": ["1", "2"], "b": ["1", "2"]}}
    m = make_model(["a", "b"], ["s"], actions, actions, [], {})
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "3")
    with pytest.raises(CapacityError):
        validate_model(m)
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "1000")
    assert any(v.code == "continuity" for v in validate_model(m))


def test_successors_deterministic_model_singletons():
    m = random_model(GenParams(seed=11, num_states=4, num_agents=2, max_actions=2,
                               deterministic=True))
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
        acts.append(rng.choice(acts))
    elif kind == "permitted-unavailable":
        doc["permitted"][rng.choice(doc["states"])][rng.choice(doc["agents"])].append("9")
    elif kind == "duplicate-state":
        doc["states"].append(rng.choice(doc["states"]))
    elif kind == "second-successor":
        entries.append({**entry, "profile": dict(entry["profile"]), "to": rng.choice(doc["states"])})


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


def _uncovered_by_brute_force(m):
    """Every profile of available actions with no entry of an equal dict."""
    out = []
    for s in m.states:
        for combo in product(*(m.action_set(s, a) for a in m.agents)):
            profile = dict(zip(m.agents, combo))
            if not any(dict(p) == profile for p, _ in m.entries(s)):
                out.append((s, tuple(sorted(profile.items()))))
    return out


def test_continuity_matches_brute_force_on_mutated_corpus():
    invalid = 0
    for m in mutated_models(seed=3, count=240):
        report = validate_model(m)
        invalid += bool(report)
        got = [(v.state, v.profile) for v in report if v.code == "continuity"]
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
        report = validate_model(m, cap=1000)
    except CapacityError:
        return
    assert isinstance(report, list)
