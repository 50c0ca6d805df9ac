import importlib

import pytest

import permitmc


def test_public_names_resolve_to_their_submodule_objects():
    assert len(permitmc.__all__) == len(set(permitmc.__all__))
    listed = dir(permitmc)
    for name in permitmc.__all__:
        module = importlib.import_module(f"permitmc.{permitmc._SOURCE[name]}")
        assert getattr(permitmc, name) is getattr(module, name), name
        assert name in listed, name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'permitmc' has no attribute 'nope'$"):
        permitmc.nope
    assert not hasattr(permitmc, "__wrapped__")
