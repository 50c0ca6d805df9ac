"""Explicit-state model checking and reasoning for agentive permissions.

Four modalities over multiagent transition systems: weak/strong permission to
ensure or admit an outcome. The package bundles the semantics engine, a
truth-set-algebra witness toolkit, a Hilbert-style derivation checker, a
reduction to a next-step coalition game, seeded generators, a fixture corpus,
and a CLI (``permitmc`` or ``python -m permitmc``).

The public names below are re-exported from their submodules on first access
(PEP 562), so ``import permitmc`` runs no submodule until one is used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "SearchBounds", "SearchResult", "closure_step",
        "default_family", "family_of", "search_witness", "verify_closure", "verify_witness",
    ),
    "atl": (
        "AtlModel", "AtlState", "eval_atl", "expand_model", "translate_formula",
        "verify_translation",
    ),
    "checker": (
        "ModelChecker", "check_state_naive", "modal_image", "model_check", "truth_set_sa",
        "truth_set_se", "truth_set_wa", "truth_set_we",
    ),
    "deduction": (
        "AXIOMS", "AxiomSchema", "DerivationStep", "check_rule_locally", "check_validity",
        "derivation_from_dict", "instantiate_axiom", "is_tautology", "verify_derivation",
    ),
    "errors": ("CapacityError", "InputError", "ParseError"),
    "fixtures": ("FIXTURE_IDS", "load_derivation_fixture", "load_fixture", "run_fixture"),
    "formula": (
        "Formula", "Modal", "Modality", "Neg", "Or", "Prop", "and_", "format_formula", "implies",
        "modal_depth", "parse", "size",
    ),
    "generate": ("GenParams", "random_formula", "random_model"),
    "model": (
        "TransitionSystem", "TruthSet", "make_model", "model_from_dict", "model_to_dict",
        "validate_model",
    ),
}

# Public name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
