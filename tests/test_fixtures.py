import pytest
from strategies import action_unions

from permitmc.algebra import verify_witness
from permitmc.checker import model_check
from permitmc.errors import InputError
from permitmc.fixtures import (
    DERIVATION_IDS,
    FIXTURE_IDS,
    load_derivation_fixture,
    load_fixture,
    run_fixture,
)
from permitmc.formula import Modality, parse
from permitmc.model import validate_model


def test_catalog_is_complete():
    assert FIXTURE_IDS == (
        "fig1-wa",
        "fig2-we",
        "fig3-se",
        "fig4-sa",
        "fig5-single-agent",
        "factory",
    )


def test_unknown_fixture_id():
    with pytest.raises(InputError):
        load_fixture("fig9")
    with pytest.raises(InputError):
        load_derivation_fixture("nope")


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_every_fixture_model_is_valid(fixture_id):
    fx = load_fixture(fixture_id)
    assert fx.models
    for variant, model in fx.models.items():
        assert validate_model(model) == [], (fixture_id, variant)


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_every_expectation_reproduces(fixture_id):
    results = run_fixture(load_fixture(fixture_id))
    assert results
    for r in results:
        assert r.ok, r.describe()


@pytest.mark.parametrize(
    "fixture_id,target",
    [("fig2-we", Modality.WE), ("fig3-se", Modality.SE), ("fig4-sa", Modality.SA)],
)
def test_figure_witnesses(fixture_id, target):
    m = load_fixture(fixture_id).model
    assert verify_witness(m, target, "p").ok


def test_single_agent_pair_partition():
    fx = load_fixture("fig5-single-agent")
    weak = fx.models["target-wa"]
    strong = fx.models["target-sa"]
    assert verify_witness(weak, Modality.WA, "p",
                          closed_modalities=[Modality.SA, Modality.SE]).ok
    assert verify_witness(weak, Modality.WE, "p",
                          closed_modalities=[Modality.SA, Modality.SE]).ok
    assert verify_witness(strong, Modality.SA, "p",
                          closed_modalities=[Modality.WA, Modality.WE]).ok
    assert verify_witness(strong, Modality.SE, "p",
                          closed_modalities=[Modality.WA, Modality.WE]).ok


# --- the factory scenario, cross-checked against brute-force enumeration -----------

LARGE = list(range(0, 101, 5))
SMALL = list(range(0, 61, 5))


def survives(l, s):
    return l + s <= 100


def test_factory_permitted_sets_match_enumeration():
    fx = load_fixture("factory")
    ensuring = {str(l) for l in LARGE if all(survives(l, s) for s in SMALL)}
    admitting = {str(l) for l in LARGE if any(survives(l, s) for s in SMALL)}
    assert ensuring == {str(a) for a in range(0, 41, 5)}
    assert admitting == {str(a) for a in range(0, 101, 5)}
    assert fx.models["se-regulation"].permitted_set("start", "large") == ensuring
    assert fx.models["sa-regulation"].permitted_set("start", "large") == admitting


def test_factory_action_level_agreement():
    m = load_fixture("factory").models["se-regulation"]
    unions = action_unions(m, "start", "large")
    for l in LARGE:
        expected = all(survives(l, s) for s in SMALL)
        assert (unions[str(l)] <= {"alive"}) == expected


def test_factory_regulation_statements():
    fx = load_fixture("factory")
    se = fx.models["se-regulation"]
    sa = fx.models["sa-regulation"]
    assert "start" in model_check(se, parse("SE[large] fishAlive"))
    assert "start" not in model_check(se, parse("SA[large] fishAlive"))
    assert "start" in model_check(sa, parse("SA[large] fishAlive"))
    # Under the ensure-regulation every permitted amount keeps the fish safe.
    unions = action_unions(se, "start", "large")
    for action in se.permitted_set("start", "large"):
        assert unions[action] <= {"alive"}


def test_factory_contract_statements():
    fx = load_fixture("factory")
    c30 = fx.models["contract-min30"]
    c50 = fx.models["contract-min50"]
    assert "start" in model_check(c30, parse("WE[large] fishAlive"))
    assert "start" not in model_check(c50, parse("WE[large] fishAlive"))
    assert "start" in model_check(c50, parse("WA[large] fishAlive"))


def test_fixture_model_property_errors():
    fx = load_fixture("fig5-single-agent")
    with pytest.raises(InputError):
        fx.model  # two variants, no unique model
    assert load_fixture("fig1-wa").model.states == ("s", "t", "u")
