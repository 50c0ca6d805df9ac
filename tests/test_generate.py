import hashlib
import json
import random
from itertools import product

import pytest

from permitmc.algebra import SearchBounds, _random_candidate
from permitmc.checker import model_check
from permitmc.errors import CapacityError, InputError
from permitmc.formula import BOT, TOP, Modal, Modality, Prop, subformulas
from permitmc.generate import GenParams, random_formula, random_model, replicate_model
from permitmc.model import model_to_dict, validate_model


def test_same_seed_same_model():
    params = GenParams(seed=42, num_states=5, num_agents=2, max_actions=3, branching=2)
    assert random_model(params) == random_model(params)


def test_different_seeds_differ():
    a = random_model(GenParams(seed=1, num_states=5, max_actions=3, branching=2))
    b = random_model(GenParams(seed=2, num_states=5, max_actions=3, branching=2))
    assert a != b


def _grid_params(seed, branching=None):
    return GenParams(
        seed=seed,
        num_agents=1 + seed % 3,
        num_states=1 + seed % 5,
        max_actions=1 + seed % 3,
        num_props=1 + seed % 2,
        permitted_density=(0.3, 0.7, 1.0)[seed % 3],
        branching=1 + seed % 2 if branching is None else branching,
    )


def test_all_generated_models_validate():
    for seed in range(120):
        assert validate_model(random_model(_grid_params(seed))) == [], f"seed {seed}"


def _stream_digest(models):
    digest = hashlib.sha256()
    for m in models:
        digest.update(json.dumps(model_to_dict(m), sort_keys=True).encode())
    return digest.hexdigest()


def test_generated_model_stream_is_pinned():
    # A draw that moves, is added or is dropped changes some model of the
    # grid, and so this digest.
    grid = [_grid_params(seed, branching) for branching in (None, 3) for seed in range(120)]
    digest = _stream_digest(map(random_model, grid))
    assert digest == "3d56d9737937f8b7a0db2525fee11dab8c49c269f163df92b1f37067d69f199a"


def test_search_candidate_stream_is_pinned():
    # Every bound that steers a draw varies, and all 216 candidates share one
    # stream, as the candidates of one search do.
    shapes = product((3, 5), (1, 2, 3), (1, 2, 3), (True, False))
    bounds = [
        SearchBounds(max_states=n, num_agents=agents, max_actions=actions, allow_nonpermitted=allow)
        for n, agents, actions, allow in shapes
    ]
    rng = random.Random(11)
    digest = _stream_digest(_random_candidate(rng, bounds[k % len(bounds)]) for k in range(216))
    assert digest == "7bf68f13d05ab6b7dee7fab26e20656022bdbc383d77292d5e746b8e0bf4d83f"


def test_full_density_means_everything_permitted():
    m = random_model(GenParams(seed=3, num_states=4, max_actions=3, permitted_density=1.0))
    for s in m.states:
        for a in m.agents:
            assert m.permitted_set(s, a) == frozenset(m.action_set(s, a))
    # With everything permitted, strong permission to admit holds everywhere.
    for seed in range(5):
        f = random_formula(seed, 2, m.agents, ["p0"])
        assert model_check(m, Modal(Modality.SA, "a", f)) == m.state_set


def test_capacity_error_on_infeasible_params(monkeypatch):
    params = GenParams(seed=0, num_agents=3, num_states=2, max_actions=10)
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "10")
    with pytest.raises(CapacityError):
        random_model(params)


def test_param_validation():
    with pytest.raises(InputError):
        GenParams(seed=0, num_states=0)
    with pytest.raises(InputError):
        GenParams(seed=0, permitted_density=0.0)
    with pytest.raises(InputError, match="^branching must be at least 1$"):
        GenParams(seed=0, branching=0)


def test_replicate_model_refuses_fewer_than_one_copy():
    with pytest.raises(InputError, match="^copies must be at least 1$"):
        replicate_model(random_model(GenParams(seed=0)), 0)


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
