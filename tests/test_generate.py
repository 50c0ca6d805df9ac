import pytest

from permitmc.checker import model_check
from permitmc.errors import CapacityError, InputError
from permitmc.formula import BOT, TOP, Modal, Modality, Neg, Or, Prop, subformulas
from permitmc.generate import GenParams, random_formula, random_model
from permitmc.model import validate_model


def test_same_seed_same_model():
    params = GenParams(seed=42, num_states=5, num_agents=2, max_actions=3, branching=2)
    assert random_model(params) == random_model(params)


def test_different_seeds_differ():
    a = random_model(GenParams(seed=1, num_states=5, max_actions=3, branching=2))
    b = random_model(GenParams(seed=2, num_states=5, max_actions=3, branching=2))
    assert a != b


def test_all_generated_models_validate():
    for seed in range(120):
        params = GenParams(
            seed=seed,
            num_agents=1 + seed % 3,
            num_states=1 + seed % 5,
            max_actions=1 + seed % 3,
            num_props=1 + seed % 2,
            permitted_density=(0.3, 0.7, 1.0)[seed % 3],
            branching=1 + seed % 2,
        )
        assert validate_model(random_model(params)) == [], f"seed {seed}"


def test_deterministic_flag():
    m = random_model(GenParams(seed=9, num_states=4, branching=3, deterministic=True))
    for s in m.states:
        profiles = {tuple(sorted(p.items())) for p, _ in m.entries(s)}
        assert len(m.entries(s)) == len(profiles)


def test_full_density_means_everything_permitted():
    m = random_model(GenParams(seed=3, num_states=4, max_actions=3, permitted_density=1.0))
    for s in m.states:
        for a in m.agents:
            assert m.permitted_set(s, a) == frozenset(m.action_set(s, a))
    # With everything permitted, strong permission to admit holds everywhere.
    for seed in range(5):
        f = random_formula(seed, 2, m.agents, ["p0"])
        assert model_check(m, Modal(Modality.SA, "a", f)) == m.state_set


def test_capacity_error_on_infeasible_params():
    params = GenParams(seed=0, num_agents=3, num_states=2, max_actions=10)
    with pytest.raises(CapacityError):
        random_model(params, profile_cap=10)


def test_param_validation():
    with pytest.raises(InputError):
        GenParams(seed=0, num_states=0)
    with pytest.raises(InputError):
        GenParams(seed=0, permitted_density=0.0)


def test_random_formula_depth_zero_is_leaf():
    for seed in range(30):
        f = random_formula(seed, 0, ["a"], ["p"])
        assert f in (TOP, BOT) or isinstance(f, Prop)


def test_random_formula_deterministic():
    a = random_formula(7, 3, ["a", "b"], ["p", "q"])
    b = random_formula(7, 3, ["a", "b"], ["p", "q"])
    assert a == b


def test_random_formula_input_errors():
    with pytest.raises(InputError):
        random_formula(0, -1, ["a"], ["p"])
    with pytest.raises(InputError):
        random_formula(0, 1, [], ["p"])


def test_every_production_appears():
    seen_kinds = set()
    seen_modalities = set()
    for seed in range(10_000):
        f = random_formula(seed, 3, ["a", "b"], ["p"])
        for g in subformulas(f):
            seen_kinds.add(type(g).__name__)
            if isinstance(g, Modal):
                seen_modalities.add(g.kind)
    assert seen_kinds == {"Prop", "Neg", "Or", "Modal"}
    assert seen_modalities == set(Modality)
