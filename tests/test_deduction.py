import random
import re
import time
from itertools import permutations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from strategies import JSON, deep_chain, models

from permitmc.deduction import (
    AXIOMS,
    DERIVED_SCHEMAS,
    TAUTOLOGY_ATOM_CAP,
    DerivationStep,
    check_rule_locally,
    check_validity,
    derivation_from_dict,
    instantiate_axiom,
    is_tautology,
    rule_conclusion,
    soundness_round,
    verify_derivation,
)
from permitmc.errors import CapacityError, InputError
from permitmc.fixtures import DERIVATION_IDS, load_derivation_fixture
from permitmc.formula import (
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    and_,
    conj,
    disj,
    format_formula,
    implies,
    parse,
)
from permitmc.generate import GenParams, random_formula, random_model
from permitmc.model import make_model

P, Q = Prop("p"), Prop("q")


# --- axiom instantiation -----------------------------------------------------------


# format_formula of each schema's instance under bindings whose agent names
# differ from the agent variables. The printer shows the desugared tree, so
# any change to a schema's shape shows here.
SCHEMA_INSTANCES = {
    "A1": "!WA[x] false",
    "A2": "WE[x] true",
    "A3": "SA[x] false",
    "A4": "!SE[x] true | SA[x] true",
    "A5": "!WA[x] (p | (q | r)) | (WA[x] p | WA[x] (q | r))",
    "A6": "!!(!SA[x] p | !SA[x] (q | r)) | SA[x] (p | (q | r))",
    "A7": "!!(!WE[x] p | !!WE[x] (q | r)) | WA[x] !(!p | !!(q | r))",
    "A8": "!!(!!SE[x] p | !SE[x] (q | r)) | !SA[x] !(!p | !!(q | r))",
    "A9": "!!(!!WA[x] p | !SA[x] (q | r)) | !(!!WA[y] !(!p | !(q | r)) | !SA[y] !(!p | !(q | r)))",
    "WE-refinement": "!!(!WE[x] p | !!WA[x] (q | r)) | WE[x] !(!p | !!(q | r))",
    "SE-refinement": "!!(!!SE[x] p | !SA[x] (q | r)) | !SE[x] !(!p | !!(q | r))",
    "WA-transfer": "!!(!!WA[x] p | !SA[x] true) | !(!!WA[y] p | !SA[y] p)",
}


@pytest.mark.parametrize("schema_id", SCHEMA_INSTANCES)
def test_instantiate_schema(schema_id):
    schema = {**AXIOMS, **DERIVED_SCHEMAS}[schema_id]
    got = instantiate_axiom(schema, {"a": "x", "b": "y", "phi": "p", "psi": "q | r"})
    assert format_formula(got) == SCHEMA_INSTANCES[schema_id]


def test_schema_variables_and_order():
    # Seeded binding draws walk the schemas and their variables in this order.
    schemas = (*AXIOMS.values(), *DERIVED_SCHEMAS.values())
    got = [(s.id, s.agent_vars, s.formula_vars) for s in schemas]
    a, ab, pp = ("a",), ("a", "b"), ("phi", "psi")
    assert got == [
        *((f"A{i}", a, ()) for i in range(1, 5)),
        *((f"A{i}", a, pp) for i in range(5, 9)),
        ("A9", ab, pp),
        ("WE-refinement", a, pp),
        ("SE-refinement", a, pp),
        ("WA-transfer", ab, ("phi",)),
    ]


def test_instantiate_binds_by_name_simultaneously():
    # Agents named like formula variables and formulas naming the variables
    # are substituted once, not again.
    got = instantiate_axiom(AXIOMS["A9"], {"a": "b", "b": "phi", "phi": "psi", "psi": "phi"})
    assert got == parse("!WA[b] psi & SA[b] phi -> !WA[phi] (psi & phi) & SA[phi] (psi & phi)")


def test_instantiate_accepts_formula_objects():
    via_text = instantiate_axiom(AXIOMS["A5"], {"a": "b", "phi": "p", "psi": "q"})
    via_ast = instantiate_axiom(AXIOMS["A5"], {"a": "b", "phi": P, "psi": Q})
    assert via_text == via_ast


def test_instantiate_missing_binding():
    with pytest.raises(InputError):
        instantiate_axiom(AXIOMS["A7"], {"a": "a", "phi": "p"})


def test_instantiate_refuses_an_agent_variable_bound_to_a_non_string():
    with pytest.raises(InputError, match="^agent variable 'a' must bind to an agent name$"):
        instantiate_axiom(AXIOMS["A1"], {"a": 5})


def test_a9_allows_equal_agents(fig1):
    inst = instantiate_axiom(AXIOMS["A9"], {"a": "a", "b": "a", "phi": "p", "psi": "q"})
    assert check_validity(fig1, inst).valid


# --- semantic validity --------------------------------------------------------------


def test_check_validity_fig1(fig1):
    assert check_validity(fig1, instantiate_axiom(AXIOMS["A1"], {"a": "a"})).valid
    verdict = check_validity(fig1, parse("WA[a] p"))
    assert not verdict.valid
    assert verdict.counterexample == "t"
    assert check_validity(fig1, parse("true")).valid


@given(models(max_states=4, max_actions=3))
@settings(max_examples=30)
def test_axioms_hold_on_generated_models(m):
    bindings = {"a": m.agents[0], "b": m.agents[-1], "phi": "p0", "psi": "p0 | p1"}
    for schema in AXIOMS.values():
        inst = instantiate_axiom(schema, bindings)
        verdict = check_validity(m, inst)
        assert verdict.valid, f"{schema.id} fails at {verdict.counterexample}"


@given(models(max_states=4, max_actions=3))
@settings(max_examples=30)
def test_derived_schemas_hold_on_generated_models(m):
    bindings = {"a": m.agents[0], "b": m.agents[-1], "phi": "!p1", "psi": "p0"}
    for schema in DERIVED_SCHEMAS.values():
        inst = instantiate_axiom(schema, bindings)
        verdict = check_validity(m, inst)
        assert verdict.valid, f"{schema.id} fails at {verdict.counterexample}"


# --- tautology checking -------------------------------------------------------------


def test_is_tautology_examples():
    assert is_tautology(parse("p | !p"))
    assert is_tautology(parse("WA[a]p -> WA[a]p"))
    assert not is_tautology(parse("WA[a]p -> WA[a]q"))
    assert not is_tautology(parse("p"))
    assert is_tautology(parse("(p -> q) -> (!q -> !p)"))


def test_is_tautology_treats_modal_formulas_atomically():
    # Valid in the logic but not propositionally: the truth table must say no.
    assert not is_tautology(parse("!WA[a] false"))


def test_is_tautology_atom_cap():
    wide = disj([Prop(f"x{i}") for i in range(25)])
    with pytest.raises(CapacityError):
        is_tautology(wide)
    ten = disj([Prop(f"x{i}") for i in range(10)])
    assert is_tautology(Or(ten, Neg(ten)))
    assert not is_tautology(ten)
    at_cap = [Prop(f"x{i}") for i in range(TAUTOLOGY_ATOM_CAP)]
    assert is_tautology(Or(disj(at_cap), Neg(at_cap[0])))
    assert not is_tautology(disj(at_cap))
    with pytest.raises(CapacityError, match=f"^{TAUTOLOGY_ATOM_CAP + 1} atoms exceed"):
        is_tautology(disj(at_cap + [Prop("y")]))



def _atoms(f):
    """The maximal Prop and Modal subformulas of ``f``, each once."""
    atoms, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Prop, Modal)):
            atoms += [g] if g not in atoms else []
        elif isinstance(g, Neg):
            stack.append(g.child)
        else:
            stack += (g.left, g.right)
    return atoms


def _reference_tautology(f):
    """Row-by-row truth table over the maximal Prop and Modal subformulas."""
    atoms = _atoms(f)

    def value(g, row):
        if isinstance(g, (Prop, Modal)):
            return row[g]
        if isinstance(g, Neg):
            return not value(g.child, row)
        return value(g.left, row) or value(g.right, row)

    rows = product((False, True), repeat=len(atoms))
    return all(value(f, dict(zip(atoms, bits))) for bits in rows)


def test_is_tautology_agrees_with_row_by_row_evaluation():
    verdicts = []
    for seed in range(300):
        f = random_formula(seed, 4, ["a"], ["p", "q", "r"])
        for g in (f, Or(f, Neg(f)), implies(f, Or(f, Prop("q"))), and_(f, Prop("p"))):
            verdicts.append(is_tautology(g))
            assert verdicts[-1] == _reference_tautology(g), format_formula(g)
    assert 0 < sum(verdicts) < len(verdicts)


def _formula_over(rng, atoms, leaves):
    """A seeded formula with ``leaves`` leaves drawn from ``atoms``."""
    if leaves == 1:
        return rng.choice(atoms)
    if rng.random() < 0.3:
        return Neg(_formula_over(rng, atoms, leaves))
    left = rng.randint(1, leaves - 1)
    return Or(_formula_over(rng, atoms, left), _formula_over(rng, atoms, leaves - left))


def test_is_tautology_agrees_with_row_by_row_evaluation_up_to_eight_atoms():
    rng = random.Random(19)
    pool = [Prop(f"x{i}") for i in range(6)] + [
        Modal(Modality.WA, "a", Prop("x0")), Modal(Modality.SE, "b", Prop("x1"))
    ]
    widths, verdicts = set(), []
    for _ in range(150):
        atoms = rng.sample(pool, rng.randint(1, len(pool)))
        f = _formula_over(rng, atoms, rng.randint(1, 16))
        for g in (f, Or(f, Neg(f)), implies(f, Or(f, atoms[0]))):
            widths.add(len(_atoms(g)))
            verdicts.append(is_tautology(g))
            assert verdicts[-1] == _reference_tautology(g), format_formula(g)
    assert max(widths) == 8 and 0 < sum(verdicts) < len(verdicts)


def test_is_tautology_of_deep_formulas(deep_formula):
    # The walk does not enter modal atoms, however deep or wide their bodies.
    wide = disj([Prop(f"x{i}") for i in range(25)])
    for atom in (Modal(Modality.SA, "b", wide), Modal(Modality.WA, "a", deep_formula)):
        assert is_tautology(implies(atom, atom)) and not is_tautology(atom)
    chain = deep_chain(3, depth=30_000, kinds=("neg", "left", "right"))
    assert is_tautology(Or(chain, Neg(chain))) and not is_tautology(and_(chain, Neg(chain)))


def test_instantiate_deep_bindings(deep_formula):
    f = deep_formula
    got = instantiate_axiom(AXIOMS["A5"], {"a": "b", "phi": f, "psi": format_formula(f)})
    wa = Modal(Modality.WA, "b", f)
    assert got is implies(Modal(Modality.WA, "b", Or(f, f)), Or(wa, wa))


# --- local rule checks --------------------------------------------------------------


def subset_model():
    """pi(p) strictly inside pi(q), so p -> q is valid but not q -> p."""
    actions = {"s": {"a": ["1"]}, "t": {"a": ["1"]}}
    return make_model(
        ["a"],
        ["s", "t"],
        actions=actions,
        permitted=actions,
        transitions=[("s", {"a": "1"}, "t"), ("t", {"a": "1"}, "t")],
        valuation={"p": ["t"], "q": ["s", "t"]},
    )


def test_ir2_locally_valid():
    m = subset_model()
    verdict = check_rule_locally(
        m, "ir2", parse("p -> q"), parse("WA[a]p -> WA[a]q")
    )
    assert check_validity(m, parse("p -> q")).valid and verdict.valid


def test_ir3_locally_valid():
    m = subset_model()
    verdict = check_rule_locally(
        m, "ir3", parse("p -> q"), parse("SA[a]q -> SA[a]p")
    )
    assert check_validity(m, parse("p -> q")).valid and verdict.valid


def test_rule_check_with_invalid_premise_is_vacuous():
    m = subset_model()
    verdict = check_rule_locally(m, "ir2", parse("q -> p"), parse("WA[a]q -> WA[a]p"))
    assert not check_validity(m, parse("q -> p")).valid
    assert verdict.valid


def test_one_checker_per_rule_check_and_for_a_rounds_instances(monkeypatch):
    import permitmc.deduction as deduction

    made = []

    class Counting(deduction.ModelChecker):
        def __init__(self, model):
            made.append(model)
            super().__init__(model)

    monkeypatch.setattr(deduction, "ModelChecker", Counting)
    m = subset_model()
    assert check_rule_locally(m, "ir2", parse("p -> q"), parse("WA[a]p -> WA[a]q")).valid
    assert made == [m]
    made.clear()
    fuzzed = random_model(GenParams(seed=4, num_agents=2, num_states=4, max_actions=2, branching=2))
    ran, problems = soundness_round(fuzzed, random.Random(4), 2)
    assert (ran, problems) == (len(AXIOMS) + len(DERIVED_SCHEMAS) + 3, [])
    assert made == [fuzzed] * 4  # the instances share one, each of the 3 rule checks has one


def test_rule_shape_mismatch_is_input_error():
    m = subset_model()
    with pytest.raises(InputError):
        check_rule_locally(m, "ir2", parse("p -> q"), parse("WA[a]p -> WA[a]p"))
    with pytest.raises(InputError):
        check_rule_locally(m, "ir2", parse("p"), parse("WA[a]p -> WA[a]q"))
    with pytest.raises(InputError, match="^unknown rule 'nope'$"):
        check_rule_locally(m, "nope", parse("p -> q"), parse("p -> q"))
    with pytest.raises(InputError, match="^ir3 takes exactly one agent$"):
        rule_conclusion("ir3", parse("p -> q"), ("a", "b"))


@pytest.mark.parametrize("rule", ["IR2", "Ir3", "IR4"])
def test_rule_names_are_lower_case_in_both_rule_functions(rule):
    m = subset_model()
    premise, conclusion = parse("p -> q"), parse("WA[a]p -> WA[a]q")
    message = f"^unknown rule '{rule}'$"
    with pytest.raises(InputError, match=message):
        check_rule_locally(m, rule, premise, conclusion)
    with pytest.raises(InputError, match=message):
        rule_conclusion(rule, premise, ("a",))
    assert check_rule_locally(m, "ir2", premise, conclusion).valid


def test_derivation_rule_names_decode_case_insensitively():
    d = derivation_from_dict(
        {
            "steps": [
                {"formula": "p -> p", "by": "taut"},
                {"formula": "WA[a] p -> WA[a] p", "by": "IR2:1", "agent": "a"},
            ]
        }
    )
    assert d[1].by == "ir2" and verify_derivation(d).accepted


@given(models(max_states=4, max_agents=2))
@settings(max_examples=40)
def test_ir4_locally_valid_on_random_models(m):
    if len(m.agents) < 2:
        return
    a, b = m.agents[0], m.agents[1]
    premise = implies(and_(P := Prop("p0"), Neg(P)), Neg(Prop("p1")))
    conclusion = implies(
        Modal(Modality.WE, a, and_(P, Neg(P))), Modal(Modality.SE, b, Prop("p1"))
    )
    verdict = check_rule_locally(m, "ir4", premise, conclusion)
    assert verdict.valid


def test_ir4_distinct_agents_side_condition():
    m = subset_model()
    premise = parse("p -> !q")
    conclusion = parse("WE[a]p -> SE[a]q")
    with pytest.raises(InputError, match="distinct"):
        check_rule_locally(m, "ir4", premise, conclusion)


def test_ir4_empty_sides():
    # Zero WE premises read as true, zero SE conclusions as false.
    m = subset_model()
    verdict = check_rule_locally(m, "ir4", parse("true -> !p"), parse("true -> SE[a]p"))
    assert verdict.valid or verdict.counterexample


def _mutate(f, rng):
    """``f`` with one randomly chosen node rewritten."""
    if isinstance(f, Prop) or rng.random() < 0.25:
        options = [Neg(f), Prop("p1")]
        if isinstance(f, Modal):
            options.append(Modal(rng.choice(list(Modality)), f.agent, f.child))
            options.append(Modal(f.kind, rng.choice("abc"), f.child))
        elif isinstance(f, Or):
            options.append(Or(f.right, f.left))
        elif isinstance(f, Neg):
            options.append(f.child)
        return rng.choice(options)
    if isinstance(f, Neg):
        return Neg(_mutate(f.child, rng))
    if isinstance(f, Modal):
        return Modal(f.kind, f.agent, _mutate(f.child, rng))
    if rng.random() < 0.5:
        return Or(_mutate(f.left, rng), f.right)
    return Or(f.left, _mutate(f.right, rng))


def _rule_instance(rng, agents, props):
    """A seeded (rule, premise, conclusion) that is an instance of the rule."""
    phis = [random_formula(rng.getrandbits(32), 2, agents, props) for _ in range(3)]
    rule = rng.choice(("ir2", "ir3", "ir4"))
    a = rng.choice(agents)
    if rule == "ir2":
        return rule, implies(phis[0], phis[1]), implies(
            Modal(Modality.WA, a, phis[0]), Modal(Modality.WA, a, phis[1])
        )
    if rule == "ir3":
        return rule, implies(phis[0], phis[1]), implies(
            Modal(Modality.SA, a, phis[1]), Modal(Modality.SA, a, phis[0])
        )
    chosen = rng.sample(agents, rng.randint(1, len(agents)))
    cut = rng.randint(0, len(chosen))
    we, se = chosen[:cut], chosen[cut:]
    premise = implies(conj(phis[: len(we)]), disj([Neg(f) for f in phis[: len(se)]]))
    conclusion = implies(
        conj([Modal(Modality.WE, x, f) for x, f in zip(we, phis)]),
        disj([Modal(Modality.SE, x, f) for x, f in zip(se, phis)]),
    )
    return rule, premise, conclusion


def _is_rule_instance(rule, premise, conclusion, agents):
    """Whether the rule infers the conclusion from the premise for some
    choice of agents."""

    def infers(*rule_agents):
        try:
            return rule_conclusion(rule, premise, *rule_agents) == conclusion
        except InputError:
            return False

    if rule in ("ir2", "ir3"):
        return any(infers((x,)) for x in agents)
    return any(
        infers(chosen[:cut], chosen[cut:])
        for k in range(len(agents) + 1)
        for chosen in permutations(agents, k)
        for cut in range(k + 1)
    )


def test_rule_check_raises_exactly_off_the_shape_checker():
    m = random_model(GenParams(seed=5, num_agents=3, num_props=2))
    rng = random.Random(17)
    accepted = rejected = 0
    for _ in range(300):
        rule, premise, conclusion = _rule_instance(rng, m.agents, ["p0", "p1"])
        pairs = [(premise, conclusion), (_mutate(premise, rng), conclusion)]
        pairs += [(premise, _mutate(conclusion, rng)) for _ in range(3)]
        for p, c in pairs:
            expected = _is_rule_instance(rule, p, c, m.agents)
            try:
                check_rule_locally(m, rule, p, c)
                raised = False
            except InputError:
                raised = True
            assert raised != expected, (rule, str(p), str(c))
            accepted += expected
            rejected += not expected
    assert accepted > 300 and rejected > 300


# phi/psi parts whose own modal subformulas the agent read must not enter
MODAL_PARTS = [parse("WE[b] p0 | SA[a] !p1"), parse("WA[a] WE[c] p0"), parse("!SE[d] p1 & p0")]


@pytest.mark.parametrize("n_we, n_se", list(product(range(4), repeat=2)))
def test_ir4_with_modal_parts_is_accepted(n_we, n_se):
    m = random_model(GenParams(seed=3, num_agents=6, num_states=2, num_props=2))
    we, se = m.agents[:n_we], m.agents[3 : 3 + n_se]
    premise = implies(conj(MODAL_PARTS[:n_we]), disj([Neg(f) for f in MODAL_PARTS[:n_se]]))
    conclusion = rule_conclusion("ir4", premise, we, se)
    verdict = check_rule_locally(m, "ir4", premise, conclusion)
    if check_validity(m, premise).valid:
        assert verdict == check_validity(m, conclusion)
    else:
        assert verdict.valid


@pytest.mark.parametrize("premise", ["p & p -> !q", "p -> !q"])
def test_ir4_conclusion_repeating_a_conjunct_is_refused(premise):
    with pytest.raises(InputError, match="^conclusion is not "):
        check_rule_locally(
            subset_model(), "ir4", parse(premise), parse("WE[a] p & WE[a] p -> SE[b] q")
        )


@pytest.mark.parametrize(
    "rule, premise, atom, right",
    [
        ("ir2", "p -> q", "WA[a] p", "WA[a] q"),
        ("ir4", "p -> !q", "WE[a] p", "SE[b] q"),
    ],
)
def test_agent_read_visits_shared_nodes_once(rule, premise, atom, right):
    # 60 levels of x | x over one node: 2^60 paths, 61 distinct nodes.
    left = parse(atom)
    for _ in range(60):
        left = Or(left, left)
    message = f"conclusion is not {format_formula(implies(parse(atom), parse(right)))!r}"
    start = time.perf_counter()
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        check_rule_locally(subset_model(), rule, parse(premise), implies(left, parse(right)))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "rule, premise, conclusion, message",
    [
        ("ir2", "p -> q", "WA[a] q", "conclusion is not an implication"),
        ("ir3", "p -> q", "p", "conclusion is not an implication"),
        ("nope", "p -> q", "p", "conclusion is not an implication"),
        ("ir3", "p -> q", "p -> SA[a] q", "ir3 takes exactly one agent"),
        ("ir2", "p -> q", "WA[a] p & WA[b] p -> WA[a] q", "ir2 takes exactly one agent"),
        ("ir2", "p -> q", "!WA[a] p -> WA[a] q", "conclusion is not '!WA[a] p | WA[a] q'"),
        ("ir4", "p -> !q", "p -> SE[b] q", "premise antecedent is not a conjunction of 0 parts"),
        ("ir4", "p -> !q", "WE[a] p -> q", "premise consequent is not a disjunction of 0 parts"),
        ("ir4", "p -> !q", "WE[a] p | p -> SE[b] q", "conclusion is not '!WE[a] p | SE[b] q'"),
    ],
)
def test_refusals_read_off_the_built_conclusion(rule, premise, conclusion, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        check_rule_locally(subset_model(), rule, parse(premise), parse(conclusion))


# --- derivation verification ---------------------------------------------------------


def small_accepted_derivation():
    return derivation_from_dict(
        {
            "steps": [
                {"formula": "WE[a] true", "by": "axiom:A2", "bind": {"a": "a"}},
                {"formula": "WE[a] true -> WE[a] true", "by": "taut"},
                {"formula": "WE[a] true", "by": "mp:1,2"},
            ]
        }
    )


def test_small_derivation_accepted():
    verdict = verify_derivation(small_accepted_derivation())
    assert verdict.accepted


@pytest.mark.parametrize("name", DERIVATION_IDS)
def test_shipped_derivations_accepted(name):
    assert verify_derivation(load_derivation_fixture(name)).accepted


def test_bad_axiom_binding_rejected():
    d = derivation_from_dict(
        {"steps": [{"formula": "WE[b] true", "by": "axiom:A2", "bind": {"a": "a"}}]}
    )
    verdict = verify_derivation(d)
    assert not verdict.accepted and verdict.failed_step == 1


def test_mp_must_match_literally():
    d = derivation_from_dict(
        {
            "steps": [
                {"formula": "WE[a] true", "by": "axiom:A2", "bind": {"a": "a"}},
                {"formula": "WE[a] true -> WE[a] true", "by": "taut"},
                {"formula": "WA[a] false", "by": "mp:1,2"},
            ]
        }
    )
    verdict = verify_derivation(d)
    assert not verdict.accepted and verdict.failed_step == 3


def test_forward_reference_rejected():
    d = (
        DerivationStep(parse("WE[a] true"), "mp", (1, 2)),
        DerivationStep(parse("WE[a] true -> WE[a] true"), "taut"),
    )
    verdict = verify_derivation(d)
    assert not verdict.accepted and verdict.failed_step == 1


@pytest.mark.parametrize("cite", [2, 0, 3], ids=["itself", "step-0", "a-later-step"])
def test_a_reference_outside_the_earlier_steps_is_rejected(cite):
    # Step 2 derives bare p by mp from p -> p and the formula at its cited
    # antecedent. Were step 2 (itself), step 0 (which indexes the last step)
    # or step 3 readable, that antecedent would be p and the derivation of p
    # would be accepted.
    steps = (
        DerivationStep(parse("p -> p"), "taut"),
        DerivationStep(parse("p"), "mp", (cite, 1)),
        DerivationStep(parse("p"), "mp", (2, 1)),
    )
    verdict = verify_derivation(steps)
    assert (verdict.accepted, verdict.failed_step, verdict.reason) == (
        False, 2, f"reference to step {cite} is out of range"
    )


def test_mp_rejection_names_the_implication_step_then_the_antecedent_step():
    steps = (
        DerivationStep(parse("p | !p"), "taut"),
        DerivationStep(parse("q | !q"), "taut"),
        DerivationStep(parse("q"), "mp", (1, 2)),
    )
    verdict = verify_derivation(steps)
    assert (verdict.accepted, verdict.failed_step, verdict.reason) == (
        False, 3, "step 2 is not literally step 1 -> this formula"
    )


def test_each_step_kind_decodes_to_one_record():
    steps = derivation_from_dict(
        {
            "steps": [
                {"formula": "WE[a] true", "by": "Axiom:A2", "bind": {"a": "a"}},
                {"formula": "p & !p -> !q", "by": "TAUT"},
                {"formula": "WE[a] true", "by": "mp:1,1"},
                {"formula": "WA[a] p -> WA[a] q", "by": "ir2:2", "agent": "a"},
                {"formula": "SA[b] q -> SA[b] p", "by": "ir3:2", "agent": "b"},
                {"formula": "WE[a] p & WE[c] p -> SE[b] q", "by": "ir4:2", "as": ["a", "c"],
                 "bs": ["b"]},
            ]
        }
    )
    f = parse
    assert steps == (
        DerivationStep(f("WE[a] true"), "axiom", axiom="A2", bindings=(("a", "a"),)),
        DerivationStep(f("p & !p -> !q"), "taut"),
        DerivationStep(f("WE[a] true"), "mp", (1, 1)),
        DerivationStep(f("WA[a] p -> WA[a] q"), "ir2", (2,), agents=("a",)),
        DerivationStep(f("SA[b] q -> SA[b] p"), "ir3", (2,), agents=("b",)),
        DerivationStep(f("WE[a] p & WE[c] p -> SE[b] q"), "ir4", (2,), agents=("a", "c"),
                       se_agents=("b",)),
    )


@pytest.mark.parametrize(
    "step, reason",
    [
        (DerivationStep(parse("WE[a] true"), "mp", (1,)), "mp cites 2 step(s), not 1"),
        (DerivationStep(parse("WA[a] true -> WA[a] true"), "ir2", agents=("a",)),
         "ir2 cites 1 step(s), not 0"),
        (DerivationStep(parse("true"), "ir4", (1, 1)), "ir4 cites 1 step(s), not 2"),
        (DerivationStep(parse("true"), "taut", (1,)), "taut cites 0 step(s), not 1"),
        (DerivationStep(parse("true"), "wat"), "unknown justification 'wat'"),
    ],
)
def test_cites_that_do_not_fit_the_kind_are_rejected_at_that_step(step, reason):
    first = DerivationStep(parse("WE[a] true -> WE[a] true"), "taut")
    verdict = verify_derivation((first, step))
    assert (verdict.accepted, verdict.failed_step, verdict.reason) == (False, 2, reason)


@pytest.mark.parametrize(
    "step, reason",
    [
        ({"formula": "WE[a] true", "by": "axiom:A99"}, "unknown axiom 'A99'"),
        ({"formula": "!WA[a] false", "by": "axiom:A1", "bind": {}},
         "missing binding for agent variable 'a' of A1"),
        ({"formula": "WE[a] (p & !p) -> SE[a] q", "by": "ir4:1", "as": ["a"], "bs": ["a"]},
         "agents of the rule must be distinct"),
    ],
    ids=["unknown-axiom", "unbound-agent", "repeated-ir4-agent"],
)
def test_justification_that_fails_is_rejected_at_that_step(step, reason):
    doc = {"steps": [{"formula": "p & !p -> !q", "by": "taut"}, step]}
    verdict = verify_derivation(derivation_from_dict(doc))
    assert (verdict.accepted, verdict.failed_step, verdict.reason) == (False, 2, reason)


def test_agent_corruption_rejected_at_that_step():
    doc = {
        "steps": [
            {"formula": "WE[a] true", "by": "axiom:A2", "bind": {"a": "a"}},
            {"formula": "WE[a] true -> WE[a] true", "by": "taut"},
            {"formula": "WE[a] true", "by": "mp:1,2"},
        ]
    }
    doc["steps"][0]["formula"] = "WE[b] true"
    verdict = verify_derivation(derivation_from_dict(doc))
    assert not verdict.accepted and verdict.failed_step == 1


def _renumber(step, removed_index):
    """Shift 1-based references after deleting the step at removed_index."""
    entry = dict(step)
    by = entry["by"]
    kind, _, arg = by.partition(":")
    if kind in ("mp", "ir2", "ir3", "ir4") and arg:
        refs = [int(x) for x in arg.split(",")]
        refs = [r - 1 if r > removed_index else r for r in refs]
        entry["by"] = f"{kind}:{','.join(str(r) for r in refs)}"
    return entry


def test_deleting_unreferenced_step_preserves_acceptance():
    doc = {
        "steps": [
            {"formula": "WE[a] true", "by": "axiom:A2", "bind": {"a": "a"}},
            {"formula": "p | !p", "by": "taut"},  # never referenced
            {"formula": "WE[a] true -> WE[a] true", "by": "taut"},
            {"formula": "WE[a] true", "by": "mp:1,3"},
        ]
    }
    assert verify_derivation(derivation_from_dict(doc)).accepted
    pruned = {
        "steps": [
            _renumber(s, 2) for i, s in enumerate(doc["steps"], start=1) if i != 2
        ]
    }
    assert verify_derivation(derivation_from_dict(pruned)).accepted


@given(models(max_states=4, max_actions=3))
@settings(max_examples=25)
def test_accepted_derivations_are_valid_on_models(m):
    for name in DERIVATION_IDS:
        d = load_derivation_fixture(name)
        assert verify_derivation(d).accepted
        conclusion = d[-1].formula
        # The shipped conclusions mention agent "a", present in every
        # generated model (agents are named alphabetically).
        assert "a" in m.agents
        verdict = check_validity(m, conclusion)
        assert verdict.valid, f"{name} conclusion fails at {verdict.counterexample}"


def test_derivation_decode_errors():
    with pytest.raises(InputError):
        derivation_from_dict({"steps": [{"formula": "p"}]})
    with pytest.raises(InputError):
        derivation_from_dict({"steps": [{"formula": "p", "by": "mp:1"}]})
    with pytest.raises(InputError):
        derivation_from_dict({"steps": [{"formula": "p", "by": "wat:1"}]})


NOT_A_FORMULA = "step 1: 'formula' must be a string"
NOT_AGENT_LISTS = "step 1: 'as' and 'bs' must be lists of agent names"
NOT_A_BIND = "step 1: 'bind' must be an object"
NOT_STRINGS = "step 1: 'bind' values must be strings"


@pytest.mark.parametrize(
    "step, message",
    [
        ({"formula": 5, "by": "taut"}, NOT_A_FORMULA),
        ({"formula": ["p"], "by": "taut"}, NOT_A_FORMULA),
        ({"formula": "p", "by": "ir4:1", "as": "a"}, NOT_AGENT_LISTS),
        ({"formula": "p", "by": "ir4:1", "as": "a", "bs": "b"}, NOT_AGENT_LISTS),
        ({"formula": "p", "by": "ir4:1", "as": {"a": "b"}}, NOT_AGENT_LISTS),
        ({"formula": "p", "by": "ir4:1", "bs": ["b", 1]}, NOT_AGENT_LISTS),
        ({"formula": "p", "by": 5}, "step 1: 'by' must be a string"),
        ({"formula": "p", "by": ["taut"]}, "step 1: 'by' must be a string"),
        ({"formula": "WE[a] true", "by": "axiom:A2", "bind": ["a"]}, NOT_A_BIND),
        ({"formula": "WE[a] true", "by": "axiom:A2", "bind": "a"}, NOT_A_BIND),
        ({"formula": "p", "by": "ir2:1"}, "step 1: ir2 needs an 'agent' field"),
        ({"formula": "p", "by": "ir2:1", "agent": 1}, "step 1: ir2 needs an 'agent' field"),
        ({"formula": "!WA[a] false", "by": "axiom:A1", "bind": {"a": 5}}, NOT_STRINGS),
        ({"formula": "p", "by": "axiom:A5", "bind": {"a": "a", "phi": True, "psi": "q"}},
         NOT_STRINGS),
        ({"formula": "p | !p", "by": "taut:7"}, "step 1: taut takes no argument, got 'taut:7'"),
        ({"formula": "p | !p", "by": "TAUT:"}, "step 1: taut takes no argument, got 'TAUT:'"),
        ({"formula": "p", "by": "mp:1,x"}, "step 1: step references must be integers"),
    ],
)
def test_derivation_field_types_are_input_errors(step, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        derivation_from_dict({"steps": [step]})


# step objects whose fields mix well-formed values with arbitrary JSON
BY = st.sampled_from(
    ["taut", "mp:1,2", "mp:1", "axiom:A2", "ir2:1", "ir3:1", "ir4:1", "ir4:x", "wat"]
)
STEP = st.fixed_dictionaries(
    {"formula": JSON | st.sampled_from(["p", "WE[a] p", "p ->", "p | !p"]), "by": JSON | BY},
    optional={"bind": JSON, "agent": JSON, "as": JSON | st.just(["a"]), "bs": JSON},
)


@given(JSON | st.fixed_dictionaries({"steps": JSON | st.lists(JSON | STEP, max_size=4)}))
def test_arbitrary_derivation_json_fails_only_with_input_error(doc):
    try:
        d = derivation_from_dict(doc)
    except InputError:
        return
    assert isinstance(verify_derivation(d).accepted, bool)
