import random

import pytest
from hypothesis import given
from strategies import action_unions, formulas, model_and_formulas, models

from permitmc.algebra import closure_step, default_family, verify_closure
from permitmc.checker import (
    check_state_naive,
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
from permitmc.model import make_model, model_from_dict, model_to_dict

P = Prop("p0")
Q = Prop("p1")
EMPTY = frozenset()


# --- ensures / admits -------------------------------------------------------------
# An action ensures a truth set when its successor union lies inside it, and
# admits it when the union meets it.


def test_ensures_fig1_examples(fig1):
    assert action_unions(fig1, "u", "a")["1"] <= {"u"}
    assert not action_unions(fig1, "s", "a")["2"] <= {"u"}
    for s in fig1.states:
        for union in action_unions(fig1, s, "a").values():
            assert union <= fig1.state_set


def test_admits_fig1_examples(fig1):
    assert action_unions(fig1, "s", "a")["2"] & {"t"}
    for s in fig1.states:
        unions = action_unions(fig1, s, "a")
        assert list(unions) == list(fig1.action_set(s, "a"))
        assert all(unions.values())  # so no action admits the empty set


@given(models(max_states=3, max_actions=2))
def test_admits_is_dual_of_ensures(m):
    # An action admits psi exactly when it does not ensure the complement, so
    # where the agent has one permitted action WA[a] psi = !WE[a] !psi, and
    # where it has one other action SA[a] psi = !SE[a] !psi.
    psi = frozenset(s for i, s in enumerate(m.states) if i % 2 == 0)
    rest = m.state_set - psi
    for a in m.agents:
        wa, we = modal_image(m, Modality.WA, a, psi), modal_image(m, Modality.WE, a, rest)
        sa, se = modal_image(m, Modality.SA, a, psi), modal_image(m, Modality.SE, a, rest)
        for s in m.states:
            others = len(m.action_set(s, a)) - len(m.permitted_set(s, a))
            if len(m.permitted_set(s, a)) == 1:
                assert (s in wa) == (s not in we)
            if others == 1:
                assert (s in sa) == (s not in se)


# --- the four truth-set operations -------------------------------------------------


def test_truth_set_wa_fig1(fig1):
    assert sorted(truth_set_wa(fig1, "a", frozenset({"u"}))) == ["s", "u"]
    assert truth_set_wa(fig1, "a", EMPTY) == EMPTY
    assert truth_set_wa(fig1, "a", fig1.state_set) == fig1.state_set


def test_truth_set_we_fig1(fig1):
    assert sorted(truth_set_we(fig1, "a", frozenset({"u"}))) == ["u"]
    assert truth_set_we(fig1, "a", fig1.state_set) == fig1.state_set
    assert truth_set_we(fig1, "a", EMPTY) == EMPTY


def test_truth_set_se_vacuous_and_all_permitted(fig1, fig3):
    assert truth_set_se(fig1, "a", EMPTY) == fig1.state_set
    # All actions permitted in fig1, so the subset test always passes.
    for member in ({"u"}, {"s", "t"}, set(fig1.states), set()):
        assert truth_set_se(fig1, "a", frozenset(member)) == fig1.state_set
    # fig3: the non-permitted forcing action at s breaks the subset condition.
    assert sorted(truth_set_se(fig3, "a", frozenset({"u"}))) == ["t", "u"]


def test_truth_set_sa_examples(fig1, fig4):
    assert truth_set_sa(fig1, "a", EMPTY) == fig1.state_set
    for member in ({"u"}, {"s", "t"}, set(fig1.states)):
        assert truth_set_sa(fig1, "a", frozenset(member)) == fig1.state_set
    # fig4: states whose non-permitted actions can reach the p-state drop out.
    assert sorted(truth_set_sa(fig4, "a", frozenset({"u"}))) == ["t"]


# --- model_check and the naive oracle ----------------------------------------------


def test_model_check_fig1_goldens(fig1):
    assert sorted(model_check(fig1, parse("p"))) == ["u"]
    assert sorted(model_check(fig1, parse("!p"))) == ["s", "t"]
    assert sorted(model_check(fig1, parse("WA[a] p"))) == ["s", "u"]


def test_model_check_deep_negation_chain(fig1):
    # 10^5 negations of p: an even count, so the truth set of p, [[p]] = {u}.
    f = parse("!" * 10**5 + "p")
    assert sorted(model_check(fig1, f)) == ["u"]
    assert sorted(model_check(fig1, Neg(f))) == ["s", "t"]


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
        lambda: truth_set_wa(fig1, "zz", fig1.state_set),
        lambda: truth_set_we(fig1, "zz", fig1.state_set),
        lambda: truth_set_se(fig1, "zz", fig1.state_set),
        lambda: truth_set_sa(fig1, "zz", fig1.state_set),
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
            psi = frozenset(members)
            for a in m.agents:
                for kind in Modality:
                    f = Modal(kind, a, Prop(f"q{k}"))
                    want = {s for s in m.states if check_state_naive(m, s, f)}
                    assert modal_image(m, kind, a, psi) == want
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
        assert sorted(ts) == want
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
    assert wa == we
    assert sa == se


@given(models(max_states=4))
def test_monotonicity_and_antimonotonicity(m):
    narrow = and_(P, Q)
    wide = P
    assert model_check(m, narrow) <= model_check(m, wide)
    for a in m.agents:
        assert (
            model_check(m, Modal(Modality.WA, a, narrow))
            <= model_check(m, Modal(Modality.WA, a, wide))
        )
        assert (
            model_check(m, Modal(Modality.SA, a, wide))
            <= model_check(m, Modal(Modality.SA, a, narrow))
        )


@given(model_and_formulas(n_formulas=2, max_leaves=4, max_states=4))
def test_wa_distributes_over_disjunction(triple):
    m, f, g = triple
    for a in m.agents:
        assert (
            model_check(m, Modal(Modality.WA, a, Or(f, g)))
            == model_check(m, Modal(Modality.WA, a, f))
            | model_check(m, Modal(Modality.WA, a, g))
        )


@given(models(max_states=4))
def test_constant_laws(m):
    for a in m.agents:
        assert model_check(m, parse(f"WA[{a}] false")) == EMPTY
        assert model_check(m, parse(f"WE[{a}] true")) == m.state_set
        assert model_check(m, parse(f"SA[{a}] false")) == m.state_set
        assert (
            model_check(m, parse(f"SE[{a}] true"))
            <= model_check(m, parse(f"SA[{a}] true"))
        )


def test_neg_and_or_follow_set_algebra(fig1):
    f, g = parse("WA[a] p"), parse("WE[b] !p")
    assert model_check(fig1, Neg(f)) == fig1.state_set - model_check(fig1, f)
    assert (
        model_check(fig1, Or(f, g))
        == model_check(fig1, f) | model_check(fig1, g)
    )
    assert model_check(fig1, and_(f, g)) == (
        model_check(fig1, f) & model_check(fig1, g)
    )
