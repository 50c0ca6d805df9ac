import random
import sys
import threading

import pytest
from hypothesis import given
from strategies import action_unions, formulas, model_and_formulas, models

from permitmc.algebra import closure_step, default_family
from permitmc.atl import verify_translation
import permitmc.checker
from permitmc.checker import (
    BOOLEAN_CACHE_MIN_STATES,
    ModelChecker,
    check_state_naive,
    modal_image,
    model_check,
    truth_set_sa,
    truth_set_se,
    truth_set_wa,
    truth_set_we,
)
from permitmc.errors import InputError
from permitmc.formula import TOP_PROP, Modal, Modality, Neg, Or, Prop, and_, parse, postorder
from permitmc.generate import GenParams, random_formula, random_model
from permitmc.model import make_model, model_from_dict, model_to_dict
from test_model import MUTATIONS, TABLE_MUTATIONS, mutated_models

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
    ]
    for call in calls:
        with pytest.raises(InputError, match="unknown agent 'zz'"):
            call()
    # A failed step stores nothing: the same checker refuses it again and
    # still answers for a known agent.
    checker = ModelChecker(fig1)
    for _ in range(2):
        with pytest.raises(InputError, match="unknown agent 'zz'"):
            checker.truth_set(parse("WA[zz] p"))
    assert sorted(checker.truth_set(parse("WA[a] p"))) == ["s", "u"]


def test_the_first_unknown_agent_in_fold_order_is_reported(fig1):
    # The fold labels the left side first, so its agent is the one named.
    with pytest.raises(InputError, match="^unknown agent 'zz'$"):
        model_check(fig1, parse("WA[zz] p | SE[yy] WA[xx] p"))


# --- modal images shared by (modality, agent, argument truth set) ---------------


def _layered_chain(layers, agents, props):
    """``K[a] (p | f)`` wrapped ``layers`` times around ``p``, cycling the
    four modalities, the agents and the propositions from layer to layer."""
    kinds = list(Modality)
    f = Prop(props[0])
    for i in range(layers):
        f = Modal(kinds[i % 4], agents[i % len(agents)], Or(Prop(props[i % len(props)]), f))
    return f


def test_checker_scans_each_modality_agent_and_truth_set_once(monkeypatch):
    m = random_model(GenParams(
        seed=3, num_states=50, num_agents=2, max_actions=3, branching=2, num_props=3,
    ))
    chain = _layered_chain(64, m.agents, sorted(m.valuation))
    nodes = [g for g in postorder(chain, set()) if isinstance(g, Modal)]
    keys = {(g.kind, g.agent, model_check(m, g.child)) for g in nodes}
    want = model_check(m, chain)
    scans = []

    def counted(*args):
        scans.append(args[1:])
        return modal_image(*args)

    monkeypatch.setattr(permitmc.checker, "modal_image", counted)
    checker = ModelChecker(m)
    assert checker.truth_set(chain) == want
    assert len(nodes) == 64
    assert set(scans) == keys and len(scans) == len(keys) < len(nodes)
    # The images belong to the checker: asking it again scans nothing, and a
    # second checker scans each of its keys once more.
    assert checker.truth_set(chain) == want and len(scans) == len(keys)
    assert ModelChecker(m).truth_set(chain) == want
    assert len(scans) == 2 * len(keys) and set(scans) == keys


# --- boolean steps cached by operand truth sets ----------------------------------


def _reference_labels(m, f):
    """The truth set of each node of ``f`` by plain set algebra and no cache:
    ``|`` for ``Or``, the complement in the states for ``Neg``,
    ``modal_image`` for a modal node."""
    labels = {}
    for g in postorder(f, labels):
        if isinstance(g, Or):
            labels[g] = labels[g.left] | labels[g.right]
        elif isinstance(g, Neg):
            labels[g] = m.state_set - labels[g.child]
        elif isinstance(g, Modal):
            labels[g] = modal_image(m, g.kind, g.agent, labels[g.child])
        elif g.name == TOP_PROP:
            labels[g] = m.state_set
        else:
            labels[g] = m.valuation.get(g.name, EMPTY)
    return labels


def _negated_chain(layers, agents, props):
    """``K[a] (p | !f)`` wrapped ``layers`` times around ``p``, cycling the
    four modalities, the agents and the propositions: every layer takes one
    complement and one union of a modal image."""
    kinds = list(Modality)
    f = Prop(props[0])
    for i in range(layers):
        f = Modal(kinds[i % 4], agents[i % len(agents)], Or(Prop(props[i % len(props)]), Neg(f)))
    return f


@pytest.mark.parametrize("states", [
    3, 20, BOOLEAN_CACHE_MIN_STATES - 1, BOOLEAN_CACHE_MIN_STATES, 150, 300,
])
def test_cached_boolean_steps_agree_with_plain_set_algebra(states):
    # Seeded models on both sides of the gate, each with one checker for a
    # batch of random formulas and modal chains up to 10^4 layers deep.
    rng = random.Random(states)
    m = random_model(GenParams(
        seed=states, num_states=states, num_agents=2, max_actions=3, branching=2, num_props=3,
    ))
    cached = len(m.state_set) >= BOOLEAN_CACHE_MIN_STATES
    checker = ModelChecker(m)
    assert hasattr(checker._or, "cache_info") == hasattr(checker._neg, "cache_info") == cached
    agents, props = list(m.agents), sorted(m.valuation)
    batch = [random_formula(rng.getrandbits(32), rng.randint(1, 6), agents, props)
             for _ in range(40)]
    for layers in (16, 128, 10**4):
        batch.append(_layered_chain(layers, rng.sample(agents, 2), props))
        batch.append(_negated_chain(layers, rng.sample(agents, 2), props))
    rng.shuffle(batch)
    for f in batch:
        assert checker.truth_set(f) == _reference_labels(m, f)[f]
    if cached:
        assert checker._or.cache_info().hits > 0 and checker._neg.cache_info().hits > 0


def test_each_distinct_operand_pair_is_computed_once(monkeypatch):
    m = random_model(GenParams(
        seed=5, num_states=2 * BOOLEAN_CACHE_MIN_STATES, num_agents=2, max_actions=3,
        branching=2, num_props=3,
    ))
    chain = _negated_chain(128, m.agents, sorted(m.valuation))
    labels = _reference_labels(m, chain)
    ors = [g for g in labels if isinstance(g, Or)]
    negs = [g for g in labels if isinstance(g, Neg)]
    pairs = {(labels[g.left], labels[g.right]) for g in ors}
    operands = {labels[g.child] for g in negs}
    assert len(ors) == len(negs) == 128
    assert len(pairs) < len(ors) and len(operands) < len(negs)  # the operands recur
    unions = []

    def counted(left, right):
        unions.append((left, right))
        return left | right

    monkeypatch.setattr(permitmc.checker, "or_", counted)
    checker = ModelChecker(m)
    assert checker.truth_set(chain) == labels[chain]
    assert len(unions) == len(set(unions)) == len(pairs) and set(unions) == pairs
    neg = checker._neg.cache_info()
    assert (neg.misses, neg.hits) == (len(operands), len(negs) - len(operands))
    # A recurring pair returns the set stored for it, not an equal copy, and
    # asking again unions nothing.
    for g in ors:
        assert checker._memo[g] is checker._or(labels[g.left], labels[g.right])
    assert len(unions) == len(pairs)
    # The caches are the checker's: the model keeps only its derived caches.
    derived = {"state_set", "successor_unions", "successor_universe"}
    fields = {"agents", "states", "actions", "permitted", "mechanism", "valuation"}
    assert set(vars(m)) == fields | derived


def test_checking_leaves_a_model_its_fields_and_derived_caches_only():
    m = random_model(GenParams(seed=4, num_states=30, num_agents=2, max_actions=3, num_props=2))
    rng = random.Random(4)
    agents, props = sorted(m.agents), sorted(m.valuation)
    for _ in range(1000):
        f = random_formula(rng.getrandbits(32), rng.randint(1, 5), agents, props)
        ModelChecker(m).truth_set(f)
    for modality in Modality:
        closure_step(m, default_family(m, "p0"), modality, agents[0])
    derived = {"state_set", "successor_unions", "successor_universe"}
    fields = {"agents", "states", "actions", "permitted", "mechanism", "valuation"}
    assert set(vars(m)) == fields | derived


def test_threads_sharing_a_model_read_equal_images():
    # Checkers in several threads build one model's derived caches at once;
    # each must get the truth sets of a single-threaded run on a twin.
    params = GenParams(seed=8, num_states=30, num_agents=2, max_actions=3, num_props=2)
    m, twin = random_model(params), random_model(params)
    rng = random.Random(8)
    batch = _batch(twin, rng, (16, 24))
    want = [model_check(twin, f) for f in batch]
    threads, results = 8, []
    start = threading.Barrier(threads)

    def check():
        start.wait(timeout=60)
        results.append([ModelChecker(m).truth_set(f) for f in batch])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=check) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(results) == threads and all(r == want for r in results)


def _batch(m, rng, chain_layers):
    agents = sorted(set(m.agents))
    props = sorted(m.valuation) or ["p0"]
    batch = [random_formula(rng.getrandbits(32), rng.randint(1, 5), agents, props)
             for _ in range(12)]
    for layers in chain_layers:
        batch.append(_layered_chain(layers, rng.sample(agents, len(agents)), props))
    rng.shuffle(batch)
    return batch


def _corpus():
    rng = random.Random(20)
    for _ in range(30):
        yield random_model(GenParams(
            seed=rng.getrandbits(32), num_agents=rng.randint(1, 3), num_states=rng.randint(1, 40),
            max_actions=rng.randint(1, 3), num_props=rng.randint(1, 3),
            permitted_density=rng.choice((0.5, 1.0)), branching=rng.choice((1, 2, 3)),
        ))
    yield from mutated_models(seed=5, count=60)
    yield from mutated_models(seed=6, count=60, kinds=MUTATIONS + TABLE_MUTATIONS)


def test_shared_checker_agrees_with_a_fresh_one_and_the_oracle():
    rng = random.Random(20)
    checked = oracle_models = 0
    for m in _corpus():
        small = len(m.state_set) <= 12
        oracle_models += small
        batch = _batch(m, rng, (3, 4) if small else (3, 32))
        checker = ModelChecker(m)
        for f in batch:
            ts = checker.truth_set(f)
            assert ts == model_check(m, f)
            if small:
                for s in m.states:
                    assert (s in ts) == check_state_naive(m, s, f), (f, s)
            checked += 1
    assert checked > 2000 and oracle_models > 100


def test_checker_oracle_and_game_read_an_invalid_model_alike():
    # Every mutation kind, on 960 models: the oracle agrees with the checker at
    # every state, and the game translation agrees at every expanded state or
    # refuses the model, also where an agent has no available action at a state.
    pairs = refused = 0
    for seed in (3, 4, 5, 6):
        for m in mutated_models(seed, 240, MUTATIONS + TABLE_MUTATIONS + ("no-actions",)):
            agents = list(dict.fromkeys(m.agents))
            texts = [f"{k.value}[{a}] {p}" for a in agents for k in Modality for p in ("p0", "!p0")]
            texts += [f"WE[{a}] false" for a in agents[:1]]
            for f in map(parse, texts):
                ts = model_check(m, f)
                for s in m.state_set:
                    assert (s in ts) == check_state_naive(m, s, f), (model_to_dict(m), f, s)
                try:
                    assert verify_translation(m, f).ok, (model_to_dict(m), f)
                except InputError:
                    refused += 1
                pairs += 1
    assert 0 < refused < pairs


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
