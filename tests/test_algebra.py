import random
import re

import pytest
from hypothesis import given, settings
from strategies import enumerate_formulas, models
from test_model import MUTATIONS, TABLE_MUTATIONS, mutated_models

from permitmc.algebra import (
    SearchBounds,
    _is_witness,
    _random_candidate,
    closure_step,
    default_family,
    family_of,
    search_witness,
    verify_closure,
    verify_witness,
)
from permitmc.checker import model_check
from permitmc.errors import CapacityError, InputError
from permitmc.fixtures import FIXTURE_IDS, load_fixture
from permitmc.formula import Modal, Modality, Prop, format_formula, parse
from permitmc.model import TransitionSystem, make_model, validate_model


def all_permitted_pair():
    actions = {"s": {"a": ["1", "2"]}, "t": {"a": ["1"]}}
    return make_model(
        ["a"],
        ["s", "t"],
        actions=actions,
        permitted=actions,
        transitions=[
            ("s", {"a": "1"}, "s"),
            ("s", {"a": "2"}, "t"),
            ("t", {"a": "1"}, "t"),
        ],
        valuation={"p": ["t"]},
    )


def test_family_canonicalization(fig1):
    fam = family_of(fig1, [["u"], ["s", "t"], ["s", "t", "u"], [], ["u"]])
    assert len(fam) == 4
    assert [sorted(ts) for ts in fam] == [[], ["s", "t"], ["s", "t", "u"], ["u"]]
    assert frozenset({"u"}) in fam
    assert frozenset({"s"}) not in fam


def test_closure_step_fig1_we(fig1):
    fam = default_family(fig1, "p")
    images = closure_step(fig1, fam, Modality.WE, "a")
    assert sorted(images[frozenset({"u"})]) == ["u"]
    assert all(image in fam for image in images.values())


def test_closure_step_constant_family():
    m = all_permitted_pair()
    fam = family_of(m, [[], ["s", "t"]])
    for modality in Modality:
        images = closure_step(m, fam, modality, "a")
        empty, full = frozenset(), m.state_set
        assert images[full] == full
        assert images[empty] in (empty, full)
        assert all(image in fam for image in images.values())


def test_closure_step_fig1_sa_b(fig1):
    fam = default_family(fig1, "p")
    images = closure_step(fig1, fam, Modality.SA, "b")
    assert all(image in fam for image in images.values())


def test_verify_closure_fig1(fig1):
    fam = default_family(fig1, "p")
    assert verify_closure(fig1, fam, [Modality.WE, Modality.SE, Modality.SA]) == []

    assert verify_closure(fig1, fam, list(Modality)) == [
        "WA[a] maps {u} to {s, u}, outside the family",
        "WA[b] maps {u} to {s, u}, outside the family",
    ]


def test_verify_closure_lines_for_a_family_that_is_not_boolean(fig1):
    # Complements first, then pairwise unions, then modal images by modality,
    # agent and member; the text is the one the witness report prints.
    fam = family_of(fig1, [["s"], ["t"], ["u"]])
    assert verify_closure(fig1, fam, [Modality.WA, Modality.WE]) == [
        "complement of {s} is {t, u}, outside the family",
        "complement of {t} is {s, u}, outside the family",
        "complement of {u} is {s, t}, outside the family",
        "union of {s} and {t} is {s, t}, outside the family",
        "union of {s} and {u} is {s, u}, outside the family",
        "union of {t} and {u} is {t, u}, outside the family",
        "WA[a] maps {s} to {}, outside the family",
        "WA[a] maps {t} to {s, t}, outside the family",
        "WA[a] maps {u} to {s, u}, outside the family",
        "WA[b] maps {s} to {}, outside the family",
        "WA[b] maps {t} to {s, t}, outside the family",
        "WA[b] maps {u} to {s, u}, outside the family",
        "WE[a] maps {s} to {}, outside the family",
        "WE[a] maps {t} to {s, t}, outside the family",
        "WE[b] maps {s} to {}, outside the family",
        "WE[b] maps {t} to {s, t}, outside the family",
    ]


def test_powerset_family_closed_under_everything():
    m = all_permitted_pair()
    fam = family_of(m, [[], ["s"], ["t"], ["s", "t"]])
    assert verify_closure(m, fam, list(Modality)) == []


def test_verify_witness_fig1(fig1):
    report = verify_witness(fig1, Modality.WA, "p")
    assert report["ok"]
    assert report["escape"]["states"] == ["s", "u"]
    assert ["WE", "a"] in report["closed_under"]
    assert report["escape"]["formula"] == "WA[a] p"


def test_verify_witness_fig2(fig2):
    assert verify_witness(fig2, Modality.WE, "p")["ok"]


def test_verify_witness_failure_stays_in_family(fig1):
    report = verify_witness(fig1, Modality.WE, "p")
    assert not report["ok"]
    assert any("stays in the family" in f for f in report["failures"])


def test_witness_depth_sweep_stays_in_family(fig1):
    fam = default_family(fig1, "p")
    sweep = enumerate_formulas(
        2, [Modality.WE, Modality.SE, Modality.SA], ["a", "b"], [Prop("p")]
    )
    from permitmc.checker import ModelChecker

    checker = ModelChecker(fig1)
    for f in sweep:
        assert checker.truth_set(f) in fam
    assert model_check(fig1, Prop("p")) in fam


def _witness_cases():
    """(model, target) for seeded streams of search candidates, then for
    every fixture model under each target."""
    for target, max_actions in [("WA", 2), ("WE", 2), ("SE", 2), ("SE", 3), ("SA", 2), ("SA", 3)]:
        rng = random.Random(f"{target}-{max_actions}")
        bounds = SearchBounds(max_actions=max_actions)
        for _ in range(500):
            yield _random_candidate(rng, bounds), Modality(target)
    for fixture_id in FIXTURE_IDS:
        for m in load_fixture(fixture_id).models.values():
            for target in Modality:
                yield m, target


def test_early_reject_agrees_with_the_full_report():
    # Each kind of rejection must occur, so that a decision that skipped the
    # escape check or the closure check would disagree somewhere.
    kinds = {"accepted": 0, "escape only": 0, "closure only": 0, "both": 0}
    for m, target in _witness_cases():
        report = verify_witness(m, target, "p")
        assert _is_witness(m, target, "p") is report["ok"]
        stays = any(line.endswith("which stays in the family") for line in report["failures"])
        open_family = len(report["failures"]) > stays
        kind = {(False, False): "accepted", (True, False): "escape only",
                (False, True): "closure only", (True, True): "both"}[stays, open_family]
        kinds[kind] += 1
    assert min(kinds.values()) > 0, kinds


def _truth_set_cases():
    """Models for the witness path, valid and invalid: the mutated corpus
    (every mutation kind), seeded search candidates, the fixture models, and
    each fixture model with a valuation member outside its states."""
    kinds = tuple(dict.fromkeys(MUTATIONS + TABLE_MUTATIONS + ("no-actions",)))
    yield from mutated_models(seed=25, count=240, kinds=kinds)
    rng = random.Random(25)
    for k in range(200):
        yield _random_candidate(rng, SearchBounds(max_states=3 + k % 3, max_actions=1 + k % 3))
    for fixture_id in FIXTURE_IDS:
        for m in load_fixture(fixture_id).models.values():
            yield m
            p = m.valuation.get("p", frozenset())
            yield TransitionSystem(m.agents, m.states, m.actions, m.permitted, m.mechanism,
                                   {**m.valuation, "p": p | {"ghost"}})


def _outcome(check, *args):
    try:
        return check(*args)
    except InputError as exc:
        return InputError, str(exc)


def _checker_reference(m, target, prop):
    """The family, escape and verdict of a witness report, built from
    ``default_family`` and the checker's truth set of the escape formula."""
    family = default_family(m, prop)
    escape = Modal(target, m.agents[0], Prop(prop))
    states = model_check(m, escape)
    closed = [mod for mod in Modality if mod is not target]
    return {
        "family": [sorted(ts) for ts in family],
        "escape": {"formula": format_formula(escape), "states": sorted(states)},
        "ok": states not in family and not verify_closure(m, family, closed),
    }


def test_witness_reads_the_truth_sets_the_checker_reads():
    # verify_witness and _is_witness read p from the valuation and scan its
    # escape image once; on valid and invalid models alike they must agree
    # with the checker, errors and their messages included.
    errors = 0
    for m in _truth_set_cases():
        for prop in ("p", "p0"):
            for target in Modality:
                want = _outcome(_checker_reference, m, target, prop)
                got = _outcome(verify_witness, m, target, prop)
                if isinstance(want, dict) and isinstance(got, dict):
                    got = {key: got[key] for key in want}
                assert got == want
                assert _outcome(_is_witness, m, target, prop) == (
                    want["ok"] if isinstance(want, dict) else want
                )
                errors += not isinstance(want, dict)
    assert errors > 0


@pytest.mark.parametrize(
    "prop, fault",
    [("__top", "reserved-proposition"), ("true", "unwritable-name"), ("false", "unwritable-name"),
     ("p q", "unwritable-name"), ("", "unwritable-name"), ("2p", "unwritable-name"),
     ("p", None), ("_q1", None), ("q", None)],
)
def test_witness_refuses_exactly_the_propositions_validation_flags(fig1, prop, fault):
    # validate_model and the witness share one name rule and its wording.
    m = make_model(fig1.agents, fig1.states, fig1.actions, fig1.permitted,
                   [(s, profile, t) for s in fig1.states for profile, t in fig1.entries(s)],
                   {prop: ["u"]})
    violations = validate_model(m)
    assert [v["code"] for v in violations] == ([fault] if fault else [])
    if fault is None:
        assert verify_witness(m, Modality.WA, prop)["ok"]
        return
    reason = f"; {re.escape(violations[0]['message'])} \\({fault}\\)$"
    for check in (verify_witness, _is_witness):
        with pytest.raises(InputError, match=reason):
            check(m, Modality.WA, prop)


def test_enumerate_formulas_counts():
    fs1 = enumerate_formulas(1, [Modality.WE], ["a"], [Prop("p")])
    # base + negations + disjunctions + one modality over one base formula
    assert len(fs1) == 1 + 1 + 1 + 1
    fs2 = enumerate_formulas(1, list(Modality), ["a", "b"], [Prop("p")])
    assert len(fs2) == 1 + 1 + 1 + 8


def test_search_finds_wa_witness_all_permitted():
    bounds = SearchBounds(max_states=3, num_agents=2, max_actions=2,
                          allow_nonpermitted=False, max_candidates=5000)
    result = search_witness(Modality.WA, bounds, seed=7)
    assert result.found
    assert result.report is not None and result.report["ok"]
    assert result.model is not None
    # Replay: the verdict must reproduce on the returned model.
    assert verify_witness(result.model, Modality.WA, "p")["ok"]


def test_search_up_to_five_states_finds_witnesses_that_replay():
    # max_states above three draws each candidate's state count from 3..5.
    bounds = SearchBounds(max_states=5, num_agents=2, max_actions=2, max_candidates=300)
    sizes = []
    for seed in range(4):
        result = search_witness(Modality.WE, bounds, seed=seed)
        if result.found:
            assert result.model is not None
            assert 3 <= len(result.model.states) <= 5
            assert verify_witness(result.model, Modality.WE, "p") == result.report
            assert result.report["ok"]
            sizes.append(len(result.model.states))
    assert max(sizes) > 3


def test_search_se_all_permitted_exhausts():
    bounds = SearchBounds(max_states=3, num_agents=2, max_actions=2,
                          allow_nonpermitted=False, max_candidates=300)
    result = search_witness(Modality.SE, bounds, seed=7)
    assert not result.found
    assert result.candidates == 300


def test_search_finds_sa_witness_with_nonpermitted_actions():
    bounds = SearchBounds(max_states=3, num_agents=2, max_actions=3,
                          allow_nonpermitted=True, max_candidates=20000)
    result = search_witness(Modality.SA, bounds, seed=7)
    assert result.found and result.report is not None and result.report["ok"]


@pytest.mark.parametrize("field", ["max_states", "num_agents", "max_actions", "max_candidates"])
@pytest.mark.parametrize("value", [0, -1])
def test_search_bounds_reject_counts_below_one(field, value):
    with pytest.raises(InputError, match="^search bounds must be at least 1$"):
        SearchBounds(**{field: value})


@pytest.mark.parametrize("states", [1, 2])
def test_search_bounds_refuse_fewer_than_three_states(states):
    with pytest.raises(InputError, match=f"^witness search needs at least 3 states, got {states}: "):
        SearchBounds(max_states=states)


def test_search_is_deterministic():
    bounds = SearchBounds(max_states=3, num_agents=2, max_actions=2,
                          allow_nonpermitted=False, max_candidates=2000)
    a = search_witness(Modality.WE, bounds, seed=13)
    b = search_witness(Modality.WE, bounds, seed=13)
    assert a.found and b.found
    assert a.candidates == b.candidates
    assert a.model == b.model


@given(models(max_states=3, max_actions=2, density=1.0))
@settings(max_examples=20)
def test_se_sa_trivial_when_everything_permitted(m):
    fam = default_family(m, "p0")
    assert verify_closure(m, fam, [Modality.SE, Modality.SA]) == []


def test_search_candidates_have_the_requested_agents():
    rng = random.Random(0)
    ten = _random_candidate(rng, SearchBounds(num_agents=10, max_actions=1))
    assert ten.agents == tuple("abcdefghij")
    eleven = _random_candidate(rng, SearchBounds(num_agents=11, max_actions=1))
    assert eleven.agents == tuple("abcdefghijk")
    assert validate_model(eleven) == []


def test_search_refuses_a_candidate_over_the_profile_cap(monkeypatch):
    # Small enough to build, so that a missing guard fails this test rather
    # than exhausting memory; tests/test_cli.py runs the large case.
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "100")
    bounds = SearchBounds(num_agents=12, max_actions=2, max_candidates=1)
    message = "^requested model needs 2208 profiles, over the cap of 100$"
    with pytest.raises(CapacityError, match=message):
        search_witness(Modality.WA, bounds, seed=0)


def test_profile_guard_leaves_searches_under_the_cap_alone(monkeypatch):
    bounds = SearchBounds(max_states=3, num_agents=2, max_actions=2, max_candidates=2000)
    before = search_witness(Modality.WE, bounds, seed=13)
    # 3 states with 2 x 2 profiles each is the most a candidate can need.
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "12")
    after = search_witness(Modality.WE, bounds, seed=13)
    assert before.found and (after.candidates, after.model) == (before.candidates, before.model)
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "2")
    with pytest.raises(CapacityError, match="^requested model needs [3-9] profiles"):
        search_witness(Modality.WE, bounds, seed=13)


def _strong_duals(a):
    """The two equivalences that hold at every state of a valid model with at
    most two actions per (state, agent): each strong modality of p is a
    boolean combination of the other's images of true and !p."""
    def iff(left, right):
        return parse(f"({left} -> {right}) & ({right} -> {left})")

    return (iff(f"SA[{a}] p", f"SE[{a}] true | !SE[{a}] !p"),
            iff(f"SE[{a}] p", f"SA[{a}] true | !SA[{a}] !p"))


def test_two_actions_make_each_strong_modality_a_combination_of_the_other():
    # Proof: the permitted set is nonempty, so of at most two actions at most
    # one, n, is not permitted, and by continuity U(n) is nonempty. With no
    # such n both sides of each equivalence are true. With one, SE[a] true
    # and SA[a] true are false; !SE[a] !p says U(n) is inside !p, which is
    # SA[a] p, and !SA[a] !p says U(n) meets !p, so is not inside p, which
    # is SE[a] p. So no two-action witness exists for SE or SA: closure
    # under the other strong modality keeps the target's image of p in the
    # family.
    rng = random.Random(3)
    checks = strict = 0
    for k in range(1500):
        bounds = SearchBounds(max_states=5, num_agents=1 + k % 3, max_actions=2)
        m = _random_candidate(rng, bounds)
        assert validate_model(m) == []
        strict += any(m.permitted_set(s, a) != set(m.action_set(s, a))
                      for s in m.states for a in m.agents)
        for a in m.agents:
            for f in _strong_duals(a):
                assert model_check(m, f) == m.state_set, (format_formula(f), m)
                checks += 1
    # every candidate is checked, and most have a non-permitted action
    assert checks == 2 * sum(1 + k % 3 for k in range(1500)) and strict > 1200


def test_three_actions_break_both_equivalences():
    # At s, action 1 is permitted and actions 2 and 3 are not; 2 reaches the
    # p-state t and 3 the !p-state u. SA[a] p and SE[a] p fail at s, as do
    # SE[a] true and SA[a] true, while !SE[a] !p and !SA[a] !p hold.
    acts = {s: {"a": ["1"] if s != "s" else ["1", "2", "3"]} for s in ("s", "t", "u")}
    m = make_model(
        ["a"], ["s", "t", "u"], acts, {s: {"a": ["1"]} for s in acts},
        [("s", {"a": "1"}, "s"), ("s", {"a": "2"}, "t"), ("s", {"a": "3"}, "u"),
         ("t", {"a": "1"}, "t"), ("u", {"a": "1"}, "u")],
        {"p": ["t"]},
    )
    assert validate_model(m) == []
    for f in _strong_duals("a"):
        assert model_check(m, f) == {"t", "u"}
