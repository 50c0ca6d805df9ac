from itertools import count

import pytest
from game_oracle import GameOracle
from hypothesis import given, settings
from strategies import model_and_formulas

from permitmc.atl import (
    AGENT_CAP,
    ADeontic,
    ANext,
    AtlState,
    NATURE,
    atl_model_to_dict,
    eval_atl,
    expand_model,
    translate_formula,
    verify_translation,
)
from permitmc.checker import check_state_naive, model_check
from permitmc.deduction import is_tautology
from permitmc.errors import CapacityError, InputError
from permitmc.formula import (
    TOP,
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    and_,
    format_formula,
    implies,
    parse,
)
from permitmc.generate import GenParams, random_formula, random_model
from permitmc.model import make_model


def test_expand_deterministic_counts(fig1):
    am = expand_model(fig1)
    assert len(am.states) == 3 * 4  # 3 base states x 2^2 subsets
    assert not am.has_nature
    assert am.players == ("a", "b")


def test_expand_nondeterministic_gets_nature(fig3):
    am = expand_model(fig3)
    assert am.has_nature
    assert am.players[-1] == NATURE
    # The profile (-1, 1) at t has two successors, so Nature picks among two.
    assert am.moves["t"][NATURE] == ("0", "1")
    assert am.moves["u"][NATURE] == ("0",)


def test_agent_named_like_nature_is_not_nature():
    # Unvalidated model: its one agent takes Nature's reserved name, and every
    # profile has one successor, so Nature does not join the players.
    actions = {"s": {NATURE: ["1"]}}
    m = make_model(
        [NATURE], ["s"], actions=actions, permitted=actions, transitions=[("s", {NATURE: "1"}, "s")]
    )
    am = expand_model(m)
    assert am.players == (NATURE,)
    assert not am.has_nature


def test_expanded_valuation_and_deontic_atoms(fig1):
    am = expand_model(fig1)
    st = AtlState("u", frozenset({"a", "b"}))
    assert st in am.states
    i = am.states.index(st)
    assert i in eval_atl(am, Prop("p"))
    assert i in eval_atl(am, ADeontic("a"))
    assert am.states.index(AtlState("u", frozenset())) not in eval_atl(am, ADeontic("a"))
    assert i in eval_atl(am, Prop("__top"))


def test_translate_shapes(fig1):
    # Source propositions pass through unchanged; d_a & f and f -> d_a are the
    # core language's desugared conjunction and implication.
    am = expand_model(fig1)
    grand = frozenset(am.players)
    p = Prop("p")
    assert translate_formula(p, am) is p
    assert translate_formula(Modal(Modality.WA, "a", p), am) == ANext(
        grand, and_(ADeontic("a"), p)
    )
    assert translate_formula(Modal(Modality.WE, "a", p), am) == ANext(
        frozenset({"a"}), and_(ADeontic("a"), p)
    )
    assert translate_formula(Modal(Modality.SE, "b", Neg(p)), am) == Neg(
        ANext(frozenset({"b"}), Neg(implies(Neg(p), ADeontic("b"))))
    )
    assert translate_formula(Modal(Modality.SA, "b", p), am) == Neg(
        ANext(grand, Neg(implies(p, ADeontic("b"))))
    )


def test_translation_uses_core_and_game_nodes_only(fig1, fig3):
    for m in (fig1, fig3):
        am = expand_model(m)
        for seed in range(40):
            stack = [translate_formula(random_formula(seed, 4, m.agents, ["p"]), am)]
            while stack:
                node = stack.pop()
                assert type(node) in (Prop, Neg, Or, ADeontic, ANext), node
                if isinstance(node, (Neg, ANext)):
                    stack.append(node.child)
                elif isinstance(node, Or):
                    stack.extend((node.left, node.right))


def test_eval_rejects_untranslated_modal(fig1):
    am = expand_model(fig1)
    with pytest.raises(InputError):
        eval_atl(am, Modal(Modality.WA, "a", Prop("p")))


def test_source_prop_named_like_deontic_atom():
    # d_a holds exactly where a arrived by its forbidden action, the opposite
    # of the game's deontic atom for a.
    m = make_model(
        ["a"],
        ["s", "t", "u"],
        actions={"s": {"a": ["1", "2"]}, "t": {"a": ["1"]}, "u": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}, "t": {"a": ["1"]}, "u": {"a": ["1"]}},
        transitions=[
            ("s", {"a": "1"}, "t"),
            ("s", {"a": "2"}, "u"),
            ("t", {"a": "1"}, "t"),
            ("u", {"a": "1"}, "u"),
        ],
        valuation={"d_a": ["u"], "p": ["t"]},
    )
    am = expand_model(m)
    i = am.states.index(AtlState("u", frozenset()))
    assert i in eval_atl(am, Prop("d_a")) and i not in eval_atl(am, ADeontic("a"))
    for text in ("WA[a] d_a", "WE[a] !d_a", "SE[a] d_a", "SA[a] (d_a | p)", "d_a"):
        assert verify_translation(m, parse(text)).ok, text


def test_grand_coalition_includes_nature(fig3):
    am = expand_model(fig3)
    translated = translate_formula(parse("WA[a] p"), am)
    assert isinstance(translated, ANext)
    assert NATURE in translated.coalition


def test_eval_grand_next_true(fig1):
    am = expand_model(fig1)
    f = ANext(frozenset(am.players), Prop("__top"))
    assert eval_atl(am, f) == frozenset(range(len(am.states)))


def test_eval_empty_coalition_universal():
    # From s both successors are possible; the empty coalition can only force
    # what holds after every move.
    actions = {"s": {"a": ["1", "2"]}, "t": {"a": ["1"]}, "u": {"a": ["1"]}}
    m = make_model(
        ["a"],
        ["s", "t", "u"],
        actions=actions,
        permitted=actions,
        transitions=[
            ("s", {"a": "1"}, "t"),
            ("s", {"a": "2"}, "u"),
            ("t", {"a": "1"}, "t"),
            ("u", {"a": "1"}, "u"),
        ],
        valuation={"p": ["t", "u"], "q": ["t"]},
    )
    am = expand_model(m)
    start = am.states.index(AtlState("s", frozenset({"a"})))
    assert start in eval_atl(am, ANext(frozenset(), Prop("p")))
    assert start not in eval_atl(am, ANext(frozenset(), Prop("q")))
    assert start in eval_atl(am, ANext(frozenset({"a"}), Prop("q")))


def test_translated_wa_matches_direct_check_everywhere(fig1):
    am = expand_model(fig1)
    translated = translate_formula(parse("WA[a] p"), am)
    direct = model_check(fig1, parse("WA[a] p"))
    holds = eval_atl(am, translated)
    for i, st in enumerate(am.states):
        assert (i in holds) == (st.base in direct)


def test_eval_unknown_coalition_member(fig1):
    am = expand_model(fig1)
    with pytest.raises(InputError):
        eval_atl(am, ANext(frozenset({"zz"}), Prop("p")))
    # Every subformula is labelled, so the node fails even behind a disjunct
    # that holds everywhere.
    with pytest.raises(InputError, match="unknown players"):
        eval_atl(am, Or(TOP, ANext(frozenset({"zz"}), Prop("p"))))


def test_eval_refuses_a_source_modal_node(fig1):
    # The game reads next-step formulas only: a permission modality must be
    # translated first, even under a connective.
    am = expand_model(fig1)
    wa = Modal(Modality.WA, "a", Prop("p"))
    for f in (wa, Neg(wa)):
        with pytest.raises(InputError, match=r"^not a next-step formula node: <Modal WA\[a\] p>$"):
            eval_atl(am, f)


def test_next_step_nodes_print_their_coalition_sorted():
    assert format_formula(ANext(frozenset({"c", "b", "a"}), Prop("p"))) == "<<a, b, c>> X p"
    assert repr(ANext(frozenset(), Neg(Prop("p")))) == "<ANext <<>> X !p>"


def test_verify_translation_fig_fixtures(fig1, fig2, fig3, fig4):
    for m in (fig1, fig2, fig3, fig4):
        for text in ("p", "WA[a] p", "WE[a] !p", "SE[a] p", "SA[a] (p | WE[b] p)"):
            verdict = verify_translation(m, parse(text))
            assert verdict.ok, (text, verdict)


def test_verify_translation_reports_the_first_mismatch(fig1, monkeypatch):
    from permitmc import atl

    translate = atl.translate_formula
    monkeypatch.setattr(atl, "translate_formula", lambda f, am: Neg(translate(f, am)))
    verdict = verify_translation(fig1, parse("WA[a] p"))
    assert (verdict.ok, verdict.checked) == (False, 1)
    assert verdict.mismatch_state == AtlState("s", frozenset())
    assert verdict.expected is True


def test_deep_formula_translation_agrees(fig1, deep_formula):
    f = deep_formula
    assert verify_translation(fig1, f).ok


EXACT = r"the entries at state 's' do not cover exactly its profiles of available actions"
LOOP = ("t", {"a": "1"}, "t")


@pytest.mark.parametrize(
    ("transitions", "message"),
    [
        ([("s", {"a": "1"}, "zz"), LOOP], r"transition from 's' reaches unknown state 'zz'"),
        ([("s", {"a": "1"}, "s"), ("s", {"a": "2"}, "s"), ("s", {"b": "1"}, "s"), LOOP], EXACT),
        ([("s", {"a": "1"}, "s"), LOOP], EXACT),
        ([("s", {"a": "1"}, "s"), ("s", {"a": "2"}, "s"), ("s", {"a": "9"}, "t"), LOOP], EXACT),
        (
            [("s", {NATURE: "1"}, "s"), ("s", {NATURE: "1"}, "t"), ("s", {NATURE: "2"}, "s"),
             ("t", {NATURE: "1"}, "t")],
            r"agent '__nature' is reserved for the game's bookkeeping agent",
        ),
        ([("s", {"a": "1"}, "s"), ("s", {"a": "2"}, "s")],
         r"agent 'a' has no available action at state 't'"),
    ],
)
def test_expand_rejects_unvalidated_entries(transitions, message):
    # Unvalidated models whose one agent has the actions 1 and 2 at s, and the
    # action 1 at t when an entry leaves t: a successor outside the state set;
    # a profile without the agent; no entry for action 2, refused even though
    # WE[a] p could be decided from action 1 alone; an entry for the
    # unavailable action 9; an agent named like Nature when a two-successor
    # profile makes Nature join; and a state t where the agent has no action,
    # at which the game would have no move. Each is an input error, not a
    # lookup failure, an entry dropped or a state without moves.
    agent = NATURE if any(NATURE in profile for _, profile, _ in transitions) else "a"
    actions = {"s": {agent: ["1", "2"]}}
    if any(source == "t" for source, _, _ in transitions):
        actions["t"] = {agent: ["1"]}
    m = make_model([agent], ["s", "t"], actions=actions, permitted=actions, transitions=transitions)
    with pytest.raises(InputError, match=message):
        expand_model(m)


def test_expansion_agent_cap():
    def one_state(n):
        agents = [f"g{i}" for i in range(n)]
        actions = {"s": {a: ["1"] for a in agents}}
        return make_model(
            agents,
            ["s"],
            actions=actions,
            permitted=actions,
            transitions=[("s", {a: "1" for a in agents}, "s")],
            valuation={},
        )

    assert AGENT_CAP == 6
    am = expand_model(one_state(AGENT_CAP))  # the cap itself expands
    assert len(am.states) == 2**AGENT_CAP and am.players == am.source.agents
    assert eval_atl(am, ADeontic("g5")) == frozenset(range(32, 64))
    with pytest.raises(CapacityError, match="^7 agents exceed the expansion cap of 6$"):
        expand_model(one_state(AGENT_CAP + 1))


def test_deontic_atom_of_an_unknown_agent_holds_nowhere(fig1):
    # d_zz names no source agent, so it tests no allowed-set bit.
    am = expand_model(fig1)
    assert eval_atl(am, ADeontic("zz")) == frozenset()
    assert eval_atl(am, Neg(ADeontic("zz"))) == frozenset(range(len(am.states)))


@given(model_and_formulas(max_states=3, max_agents=2, max_actions=2, max_leaves=4))
@settings(max_examples=25)
def test_translation_equivalence_random(pair):
    m, f = pair
    assert verify_translation(m, f).ok


@given(model_and_formulas(max_states=3, max_agents=2, max_actions=2, max_leaves=4))
@settings(max_examples=15)
def test_subset_tag_independence(pair):
    m, f = pair
    am = expand_model(m)
    holds = eval_atl(am, translate_formula(f, am))
    for base in m.states:
        verdicts = {i in holds for i, st in enumerate(am.states) if st.base == base}
        assert len(verdicts) == 1


def test_atl_export_schema(fig1, tmp_path):
    am = expand_model(fig1)
    doc = atl_model_to_dict(am)
    assert doc["schema"] == "permitmc.atl/v1"
    assert doc["nature"] is None
    assert len(doc["states"]) == 12
    # Deterministic source: one entry per (base, full move vector).
    assert all(set(e["moves"]) == {"a", "b"} for e in doc["transitions"])
    assert doc["valuation"] == {"p": ["u"]}


# --- agreement with the tag-wise game oracle -------------------------------------


def seeded_models(n, nature):
    """The first ``n`` generated models, by seed, that need Nature (or do not)."""
    out = []
    for seed in count():
        gen = GenParams(
            seed=seed, num_agents=seed % 3 + 1, num_states=seed % 4 + 2, max_actions=2,
            num_props=2, permitted_density=0.6, branching=2 if nature else 1,
        )
        m = random_model(gen)
        if expand_model(m).has_nature == nature:
            out.append(m)
            if len(out) == n:
                return out


def coalition_nodes(am, body):
    """<<C>> X body for the empty coalition, the grand coalition and each player."""
    coalitions = [frozenset(), frozenset(am.players)] + [frozenset({p}) for p in am.players]
    return [ANext(c, body) for c in coalitions]


def assert_agrees_with_oracle(m, formulas):
    am = expand_model(m)
    oracle = GameOracle(m)
    assert oracle.players == am.players
    for f in formulas:
        holds = eval_atl(am, f)
        for i, st in enumerate(am.states):
            assert (i in holds) == oracle.holds(st.base, st.allowed, f), (f, st)


def game_formulas(m, seed):
    am = expand_model(m)
    props = sorted(m.valuation)
    translated = [
        translate_formula(random_formula(seed * 10 + k, 3, m.agents, props), am) for k in range(3)
    ]
    inner = ANext(frozenset({m.agents[0]}), Prop(props[-1]))
    return translated + coalition_nodes(am, translated[0]) + coalition_nodes(am, inner)


@pytest.mark.parametrize("nature", [False, True])
def test_eval_matches_game_oracle_seeded(nature):
    models = seeded_models(30, nature)
    for seed, m in enumerate(models):
        assert_agrees_with_oracle(m, game_formulas(m, seed))


@given(model_and_formulas(max_states=3, max_agents=3, max_actions=2, max_leaves=6))
@settings(max_examples=40)
def test_eval_matches_game_oracle_random(pair):
    m, f = pair
    am = expand_model(m)
    translated = translate_formula(f, am)
    prop = Prop(sorted(m.valuation)[0]) if m.valuation else Prop("__top")
    assert_agrees_with_oracle(
        m, [translated, *coalition_nodes(am, translated), *coalition_nodes(am, prop)]
    )


def test_export_transitions_match_game_oracle(fig1, fig3):
    for m in (fig1, fig3, *seeded_models(20, nature=True)):
        am = expand_model(m)
        oracle = GameOracle(m)
        entries = atl_model_to_dict(am)["transitions"]
        expected = [(s, v) for s in m.states for v in oracle.vectors(s)]
        assert len(entries) == len(expected)
        for entry, (s, vector) in zip(entries, expected):
            assert (entry["base"], entry["moves"]) == (s, vector)
            base, allowed = oracle.transition(s, vector)
            assert entry["to"] == {"base": base, "allowed": sorted(allowed)}


def test_game_nodes_are_not_source_formulas(fig1):
    # The checker, the oracle, the tautology test and the translation read
    # source formulas only; a game atom, even under a source connective, is
    # an input error in each.
    am = expand_model(fig1)
    for node in (ADeontic("a"), Neg(ADeontic("a"))):
        for check in (lambda f: model_check(fig1, f), lambda f: check_state_naive(fig1, "s", f),
                      is_tautology, lambda f: translate_formula(f, am)):
            with pytest.raises(InputError, match=r"^not a formula node: <ADeontic d_a>$"):
                check(node)
