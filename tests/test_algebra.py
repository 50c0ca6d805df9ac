import random

import pytest
from hypothesis import given, settings
from strategies import models

from permitmc.algebra import (
    SearchBounds,
    _random_candidate,
    closure_step,
    default_family,
    enumerate_formulas,
    family_of,
    search_witness,
    verify_closure,
    verify_witness,
)
from permitmc.checker import model_check
from permitmc.errors import InputError
from permitmc.formula import Modality, Prop
from permitmc.model import make_model, validate_model


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
    report = verify_closure(fig1, fam, [Modality.WE, Modality.SE, Modality.SA], ["a", "b"])
    assert report.closed and not report.violations

    with_wa = verify_closure(fig1, fam, list(Modality), ["a", "b"])
    assert not with_wa.closed
    v = with_wa.violations[0]
    assert v.kind == "modality" and v.modality is Modality.WA and v.agent == "a"
    assert sorted(v.image) == ["s", "u"]
    assert sorted(v.sources[0]) == ["u"]


def test_powerset_family_closed_under_everything():
    m = all_permitted_pair()
    fam = family_of(m, [[], ["s"], ["t"], ["s", "t"]])
    report = verify_closure(m, fam, list(Modality), ["a"])
    assert report.closed


def test_verify_witness_fig1(fig1):
    report = verify_witness(fig1, Modality.WA, "p")
    assert report.ok
    assert sorted(report.escape_set) == ["s", "u"]
    assert (Modality.WE, "a") in report.closed_under
    assert report.to_dict()["escape"]["formula"] == "WA[a] p"


def test_verify_witness_fig2(fig2):
    assert verify_witness(fig2, Modality.WE, "p").ok


def test_verify_witness_failure_stays_in_family(fig1):
    report = verify_witness(fig1, Modality.WE, "p")
    assert not report.ok
    assert any("stays in the family" in f for f in report.failures)


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
    assert result.report is not None and result.report.ok
    assert result.model is not None
    # Replay: the verdict must reproduce on the returned model.
    assert verify_witness(result.model, Modality.WA, "p").ok


def test_search_se_all_permitted_exhausts():
    bounds = SearchBounds(max_states=3, num_agents=2, max_actions=2,
                          allow_nonpermitted=False, max_candidates=300)
    result = search_witness(Modality.SE, bounds, seed=7)
    assert not result.found and result.exhausted
    assert result.candidates == 300


def test_search_finds_sa_witness_with_nonpermitted_actions():
    bounds = SearchBounds(max_states=3, num_agents=2, max_actions=3,
                          allow_nonpermitted=True, max_candidates=20000)
    result = search_witness(Modality.SA, bounds, seed=7)
    assert result.found and result.report is not None and result.report.ok


@pytest.mark.parametrize(
    "field", ["max_states", "num_agents", "max_actions", "max_branching", "max_candidates"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_search_bounds_reject_counts_below_one(field, value):
    with pytest.raises(InputError, match="^search bounds must be at least 1$"):
        SearchBounds(**{field: value})


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
    report = verify_closure(m, fam, [Modality.SE, Modality.SA], m.agents)
    assert report.closed


def test_search_candidates_have_the_requested_agents():
    rng = random.Random(0)
    ten = _random_candidate(rng, SearchBounds(num_agents=10, max_actions=1))
    assert ten.agents == tuple("abcdefghij")
    eleven = _random_candidate(rng, SearchBounds(num_agents=11, max_actions=1))
    assert eleven.agents == tuple("abcdefghijk")
    assert validate_model(eleven) == []
