import random

import pytest
from hypothesis import given
from strategies import formulas, model_and_formulas, models

from permitmc.algebra import closure_step, default_family, verify_closure
from permitmc.checker import (
    admits,
    check_state_naive,
    ensures,
    modal_image,
    model_check,
    truth_set_sa,
    truth_set_se,
    truth_set_wa,
    truth_set_we,
)
from permitmc.errors import InputError
from permitmc.formula import Modal, Modality, Neg, Or, Prop, and_, parse
from permitmc.generate import GenParams, random_model
from permitmc.model import empty_set, full_set, make_model, model_from_dict, model_to_dict, truth_set

P = Prop("p0")
Q = Prop("p1")


def members(ts):
    return ts.sorted_members()


# --- ensures / admits -------------------------------------------------------------


def test_ensures_fig1_examples(fig1):
    p = truth_set(fig1, {"u"})
    assert ensures(fig1, "u", "a", "1", p)
    assert not ensures(fig1, "s", "a", "2", p)
    for s in fig1.states:
        for i in fig1.action_set(s, "a"):
            assert ensures(fig1, s, "a", i, full_set(fig1))


def test_admits_fig1_examples(fig1):
    assert admits(fig1, "s", "a", "2", truth_set(fig1, {"t"}))
    for s in fig1.states:
        for i in fig1.action_set(s, "a"):
            assert not admits(fig1, s, "a", i, empty_set(fig1))


def test_ensures_invalid_locus(fig1):
    with pytest.raises(InputError):
        ensures(fig1, "zz", "a", "1", empty_set(fig1))
    with pytest.raises(InputError):
        admits(fig1, "s", "a", "9", empty_set(fig1))


@given(models(max_states=3, max_actions=2))
def test_admits_is_dual_of_ensures(m):
    target = truth_set(m, [s for i, s in enumerate(m.states) if i % 2 == 0])
    for s in m.states:
        for a in m.agents:
            for i in m.action_set(s, a):
                assert admits(m, s, a, i, target) == (
                    not ensures(m, s, a, i, target.complement())
                )


# --- the four truth-set operations -------------------------------------------------


def test_truth_set_wa_fig1(fig1):
    assert members(truth_set_wa(fig1, "a", truth_set(fig1, {"u"}))) == ["s", "u"]
    assert truth_set_wa(fig1, "a", empty_set(fig1)).is_empty()
    assert truth_set_wa(fig1, "a", full_set(fig1)).is_full()


def test_truth_set_we_fig1(fig1):
    assert members(truth_set_we(fig1, "a", truth_set(fig1, {"u"}))) == ["u"]
    assert truth_set_we(fig1, "a", full_set(fig1)).is_full()
    assert truth_set_we(fig1, "a", empty_set(fig1)).is_empty()


def test_truth_set_se_vacuous_and_all_permitted(fig1, fig3):
    assert truth_set_se(fig1, "a", empty_set(fig1)).is_full()
    # All actions permitted in fig1, so the subset test always passes.
    for member in ({"u"}, {"s", "t"}, set(fig1.states), set()):
        assert truth_set_se(fig1, "a", truth_set(fig1, member)).is_full()
    # fig3: the non-permitted forcing action at s breaks the subset condition.
    assert members(truth_set_se(fig3, "a", truth_set(fig3, {"u"}))) == ["t", "u"]


def test_truth_set_sa_examples(fig1, fig4):
    assert truth_set_sa(fig1, "a", empty_set(fig1)).is_full()
    for member in ({"u"}, {"s", "t"}, set(fig1.states)):
        assert truth_set_sa(fig1, "a", truth_set(fig1, member)).is_full()
    # fig4: states whose non-permitted actions can reach the p-state drop out.
    assert members(truth_set_sa(fig4, "a", truth_set(fig4, {"u"}))) == ["t"]


# --- model_check and the naive oracle ----------------------------------------------


def test_model_check_fig1_goldens(fig1):
    assert members(model_check(fig1, parse("p"))) == ["u"]
    assert members(model_check(fig1, parse("!p"))) == ["s", "t"]
    assert members(model_check(fig1, parse("WA[a] p"))) == ["s", "u"]


def test_model_check_deep_negation_chain(fig1):
    # 10^5 negations of p: an even count, so the truth set of p, [[p]] = {u}.
    f = parse("!" * 10**5 + "p")
    assert members(model_check(fig1, f)) == ["u"]
    assert members(model_check(fig1, Neg(f))) == ["s", "t"]


def test_check_state_naive_fig1(fig1):
    assert check_state_naive(fig1, "u", parse("WE[a] p"))
    assert not check_state_naive(fig1, "t", parse("WA[a] p"))
    for s in fig1.states:
        assert check_state_naive(fig1, s, parse("true"))
    with pytest.raises(InputError):
        check_state_naive(fig1, "zz", parse("p"))


@given(model_and_formulas(max_states=4, max_actions=2))
def test_oracle_equivalence(pair):
    m, f = pair
    ts = model_check(m, f)
    for s in m.states:
        assert (s in ts) == check_state_naive(m, s, f)


def test_unknown_agent_is_an_input_error(fig1):
    family = default_family(fig1, "p")
    calls = [
        lambda: model_check(fig1, parse("WA[zz] p")),
        lambda: check_state_naive(fig1, "s", parse("WA[zz] p")),
        lambda: truth_set_wa(fig1, "zz", full_set(fig1)),
        lambda: truth_set_we(fig1, "zz", full_set(fig1)),
        lambda: truth_set_se(fig1, "zz", full_set(fig1)),
        lambda: truth_set_sa(fig1, "zz", full_set(fig1)),
        lambda: closure_step(fig1, family, Modality.SE, "zz"),
        lambda: verify_closure(fig1, family, [Modality.WA], ["zz"]),
    ]
    for call in calls:
        with pytest.raises(InputError, match="unknown agent 'zz'"):
            call()


def _density_ladder(states, rng):
    """psi = empty, one state, about half of S, S minus one state, and S."""
    one = rng.choice(states)
    half = [s for s in states if rng.random() < 0.5]
    return [[], [one], half, [s for s in states if s != one], list(states)]


def test_modal_image_matches_oracle_from_empty_to_full_psi():
    rng = random.Random(21)
    images = 0
    for _ in range(40):
        params = GenParams(
            seed=rng.getrandbits(32), num_agents=rng.randint(1, 3), num_states=rng.randint(2, 7),
            max_actions=rng.randint(1, 3), permitted_density=rng.choice((0.4, 0.7, 1.0)),
            branching=rng.choice((1, 2, 3)),
        )
        doc = model_to_dict(random_model(params))
        ladder = _density_ladder(doc["states"], rng)
        doc["valuation"] = {f"q{k}": members for k, members in enumerate(ladder)}
        m = model_from_dict(doc)
        for k, members in enumerate(ladder):
            psi = truth_set(m, members)
            for a in m.agents:
                for kind in Modality:
                    f = Modal(kind, a, Prop(f"q{k}"))
                    want = {s for s in m.states if check_state_naive(m, s, f)}
                    assert modal_image(m, kind, a, psi).members == want
                    images += 1
    assert images > 1000


# An unvalidated model whose action 1 at s, and half of action 2, lead to zz,
# a state outside ``states`` that lies in no truth set. The truth sets are
# those of the checker before the ensure test became a disjointness test;
# complementing a truth set in the states alone, without zz, would put s
# into WE[a] p and WE[a] true and take it out of SE[a] p and SE[a] true.
# The oracle must agree at every state.
STRAY_SUCCESSOR_TRUTH_SETS = {
    "WE[a] p": ["t"], "SE[a] p": ["s", "t"], "WA[a] p": ["t"], "SA[a] p": ["t"],
    "WE[a] !p": [], "SE[a] !p": ["s", "t"], "WA[a] !p": [], "SA[a] !p": ["s", "t"],
    "WE[a] true": ["t"], "SE[a] true": ["s", "t"], "WA[a] true": ["t"], "SA[a] true": ["t"],
    "WE[a] false": [], "SE[a] false": ["s", "t"], "WA[a] false": [], "SA[a] false": ["s", "t"],
}


def test_successor_outside_the_states_keeps_its_truth_sets():
    m = make_model(
        ["a"],
        ["s", "t"],
        actions={"s": {"a": ["1", "2"]}, "t": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}, "t": {"a": ["1"]}},
        transitions=[("s", {"a": "1"}, "zz"), ("s", {"a": "2"}, "zz"), ("s", {"a": "2"}, "t"),
                     ("t", {"a": "1"}, "t")],
        valuation={"p": ["t"]},
    )
    for text, want in STRAY_SUCCESSOR_TRUTH_SETS.items():
        ts = model_check(m, parse(text))
        assert members(ts) == want
        for s in m.states:
            assert (s in ts) == check_state_naive(m, s, parse(text)), (text, s)


@given(models(max_states=3, max_actions=2))
def test_constant_arguments_against_oracle(m):
    for a in m.agents:
        for kind in Modality:
            for body in ("true", "false"):
                f = Modal(kind, a, parse(body))
                ts = model_check(m, f)
                for s in m.states:
                    assert (s in ts) == check_state_naive(m, s, f)


def test_strong_modality_fixtures_against_oracle(fig3, fig4):
    for m, text in ((fig3, "SE[a] p"), (fig4, "SA[a] p")):
        f = parse(text)
        ts = model_check(m, f)
        for s in m.states:
            assert (s in ts) == check_state_naive(m, s, f)


@given(models(max_states=4, deterministic=True, single_agent=True),
       formulas(agents=("a",), max_leaves=6))
def test_single_agent_deterministic_collapse(m, f):
    wa = model_check(m, Modal(Modality.WA, "a", f))
    we = model_check(m, Modal(Modality.WE, "a", f))
    sa = model_check(m, Modal(Modality.SA, "a", f))
    se = model_check(m, Modal(Modality.SE, "a", f))
    assert wa.members == we.members
    assert sa.members == se.members


@given(models(max_states=4))
def test_monotonicity_and_antimonotonicity(m):
    narrow = and_(P, Q)
    wide = P
    assert model_check(m, narrow).members <= model_check(m, wide).members
    for a in m.agents:
        assert (
            model_check(m, Modal(Modality.WA, a, narrow)).members
            <= model_check(m, Modal(Modality.WA, a, wide)).members
        )
        assert (
            model_check(m, Modal(Modality.SA, a, wide)).members
            <= model_check(m, Modal(Modality.SA, a, narrow)).members
        )


@given(model_and_formulas(n_formulas=2, max_leaves=4, max_states=4))
def test_wa_distributes_over_disjunction(triple):
    m, f, g = triple
    for a in m.agents:
        assert (
            model_check(m, Modal(Modality.WA, a, Or(f, g))).members
            == model_check(m, Modal(Modality.WA, a, f)).members
            | model_check(m, Modal(Modality.WA, a, g)).members
        )


@given(models(max_states=4))
def test_constant_laws(m):
    for a in m.agents:
        assert model_check(m, parse(f"WA[{a}] false")).is_empty()
        assert model_check(m, parse(f"WE[{a}] true")).is_full()
        assert model_check(m, parse(f"SA[{a}] false")).is_full()
        assert (
            model_check(m, parse(f"SE[{a}] true")).members
            <= model_check(m, parse(f"SA[{a}] true")).members
        )


def test_neg_and_or_follow_set_algebra(fig1):
    f, g = parse("WA[a] p"), parse("WE[b] !p")
    assert model_check(fig1, Neg(f)).members == model_check(fig1, f).complement().members
    assert (
        model_check(fig1, Or(f, g)).members
        == model_check(fig1, f).members | model_check(fig1, g).members
    )
    assert model_check(fig1, and_(f, g)).members == (
        model_check(fig1, f).members & model_check(fig1, g).members
    )
