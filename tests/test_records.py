"""The contract of the package's frozen records: fields and their order,
defaults, keyword construction, the constructors' refusals, equality,
hashing, repr, immutability, copying and pickling."""

import copy
import pickle

import pytest

from permitmc.algebra import SearchBounds, SearchResult
from permitmc.atl import AtlModel, AtlState, TranslationVerdict, expand_model, verify_translation
from permitmc.deduction import (
    AXIOMS,
    AxiomSchema,
    DerivationStep,
    DerivationVerdict,
    ValidityVerdict,
)
from permitmc.errors import InputError
from permitmc.fixtures import Fixture, load_fixture
from permitmc.formula import parse
from permitmc.generate import GenParams
from permitmc.model import TransitionSystem


_MODEL_FIELDS = ("agents", "states", "actions", "permitted", "mechanism", "valuation")


def _fig1():
    return load_fixture("fig1-wa").model


def _fields_of(m):
    return {name: getattr(m, name) for name in _MODEL_FIELDS}

# Each record: its class, a builder of one full set of field values in field
# order (called once per instance, so equal instances share no field object
# they did not already share), how many leading fields are required, the
# defaults of the rest, and whether an instance built from those values
# hashes.
RECORDS = {
    "TransitionSystem": (TransitionSystem, lambda: _fields_of(_fig1()), 6, {}, False),
    "SearchBounds": (
        SearchBounds,
        lambda: {"max_states": 4, "num_agents": 3, "max_actions": 2,
                 "allow_nonpermitted": False, "max_candidates": 7},
        0,
        {"max_states": 3, "num_agents": 2, "max_actions": 3, "allow_nonpermitted": True,
         "max_candidates": 50_000},
        True,
    ),
    "SearchResult": (
        SearchResult,
        lambda: {"candidates": 9, "model": None, "report": None},
        1,
        {"model": None, "report": None},
        True,
    ),
    "AtlState": (
        AtlState, lambda: {"base": "s0", "allowed": frozenset({"a", "b"})}, 2, {}, True,
    ),
    "AtlModel": (
        AtlModel,
        lambda: {name: getattr(expand_model(_fig1()), name)
                 for name in ("source", "players", "states", "moves", "rows")},
        5,
        {},
        False,
    ),
    "TranslationVerdict": (
        TranslationVerdict,
        lambda: {"checked": 3, "game": expand_model(_fig1()),
                 "mismatch_state": AtlState("s1", frozenset()), "expected": True},
        2,
        {"mismatch_state": None, "expected": None},
        False,
    ),
    "AxiomSchema": (
        AxiomSchema,
        lambda: {"id": "A9", "agent_vars": ("a", "b"), "formula_vars": ("phi", "psi"),
                 "template": AXIOMS["A9"].template},
        4,
        {},
        True,
    ),
    "ValidityVerdict": (
        ValidityVerdict, lambda: {"valid": False, "counterexample": "s2"}, 1,
        {"counterexample": None}, True,
    ),
    "DerivationStep": (
        DerivationStep,
        lambda: {"formula": parse("WE[a] p -> WE[a] (p | q)"), "by": "ir2", "cites": (1,),
                 "axiom": "A7", "bindings": (("a", "a"), ("phi", "p")), "agents": ("a",),
                 "se_agents": ("b",)},
        2,
        {"cites": (), "axiom": "", "bindings": (), "agents": (), "se_agents": ()},
        True,
    ),
    "DerivationVerdict": (
        DerivationVerdict,
        lambda: {"accepted": False, "failed_step": 2, "reason": "no"},
        1,
        {"failed_step": None, "reason": None},
        True,
    ),
    "Fixture": (
        Fixture,
        lambda: {name: getattr(load_fixture("fig1-wa"), name)
                 for name in ("id", "models", "expectations")},
        3,
        {},
        False,
    ),
    "GenParams": (
        GenParams,
        lambda: {"seed": 5, "num_agents": 3, "num_states": 4, "max_actions": 3, "num_props": 2,
                 "permitted_density": 0.5, "branching": 2},
        1,
        {"num_agents": 2, "num_states": 3, "max_actions": 2, "num_props": 1,
         "permitted_density": 1.0, "branching": 1},
        True,
    ),
}

records = pytest.mark.parametrize("name", sorted(RECORDS))


def _other(value):
    """A value unequal to ``value`` that the record's constructor accepts."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1 if isinstance(value, int) else value / 2
    return object()


def _build(name):
    cls, values, *_ = RECORDS[name]
    fields = values()
    return cls, fields, cls(*fields.values())


@records
def test_positional_and_keyword_construction_set_the_fields_in_order(name):
    cls, fields, record = _build(name)
    for field, value in fields.items():
        assert getattr(record, field) is value
    assert cls(**fields) == record
    required = RECORDS[name][2]
    head = dict(list(fields.items())[:required])
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**head, no_such_field=None)
    if required:
        with pytest.raises(TypeError):
            cls(*list(fields.values())[: required - 1])


@records
def test_defaults_fill_the_optional_fields(name):
    cls, fields, _ = _build(name)
    required, defaults = RECORDS[name][2:4]
    assert list(defaults) == list(fields)[required:]
    record = cls(*list(fields.values())[:required])
    for field, value in defaults.items():
        assert getattr(record, field) == value and type(getattr(record, field)) is type(value)


@records
def test_repr_names_every_field_in_order(name):
    _, fields, record = _build(name)
    text = ", ".join(f"{field}={value!r}" for field, value in fields.items())
    assert repr(record) == f"{name}({text})"


@records
def test_equal_when_same_class_and_equal_fields(name):
    cls, fields, record = _build(name)
    twin = cls(**RECORDS[name][1]())
    assert record == twin and not record != twin
    assert record != tuple(fields.values()) and record != object()
    subclass = type("Sub", (cls,), {})
    assert record != subclass(*fields.values())
    for field, value in fields.items():
        assert cls(**{**fields, field: _other(value)}) != record


@records
def test_hash_follows_the_fields(name):
    cls, fields, record = _build(name)
    if RECORDS[name][4]:
        twin = cls(**RECORDS[name][1]())
        assert hash(record) == hash(twin) == hash(tuple(fields.values()))
        assert len({record, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@records
def test_fields_refuse_assignment_and_deletion(name):
    _, fields, record = _build(name)
    for field in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    for field, value in fields.items():
        assert getattr(record, field) is value
    assert not hasattr(record, "no_such_field")


@records
def test_copy_deepcopy_and_pickle_give_equal_records(name):
    cls, _, record = _build(name)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))):
        assert type(twin) is cls and twin == record


def test_constructors_refuse_out_of_range_bounds():
    for kwargs in ({"max_states": 0}, {"num_agents": 0}, {"max_actions": 0},
                   {"max_candidates": 0}):
        with pytest.raises(InputError, match="^search bounds must be at least 1$"):
            SearchBounds(**kwargs)
    with pytest.raises(InputError, match=(
        r"^witness search needs at least 3 states, got 2: on fewer, the family of p, !p, "
        r"true and false is the whole powerset$"
    )):
        SearchBounds(max_states=2)
    for field in ("num_agents", "num_states", "max_actions", "num_props"):
        with pytest.raises(InputError, match="^generator counts must be at least 1$"):
            GenParams(0, **{field: 0})
    for density in (0, -0.5, 1.5):
        with pytest.raises(InputError, match=r"^permitted_density must lie in \(0, 1\]$"):
            GenParams(0, permitted_density=density)
    with pytest.raises(InputError, match="^branching must be at least 1$"):
        GenParams(0, branching=0)


def test_found_and_ok_read_the_optional_fields(fig1):
    assert not SearchResult(4).found and SearchResult(4, fig1).found
    game = expand_model(fig1)
    assert TranslationVerdict(1, game).ok
    assert not TranslationVerdict(1, game, AtlState("s0", frozenset()), True).ok
    assert verify_translation(fig1, parse("WA[a] p")).ok


def test_a_model_keeps_its_fields_and_derived_caches_in_its_dict(fig1):
    m = TransitionSystem(**_fields_of(fig1))
    assert list(vars(m)) == list(_MODEL_FIELDS)
    assert m.state_set == frozenset(m.states)
    assert set(vars(m)) == {*_MODEL_FIELDS, "state_set"}
    assert copy.copy(m) == m == pickle.loads(pickle.dumps(m))
