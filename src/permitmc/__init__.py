"""Explicit-state model checking and reasoning for agentive permissions.

Four modalities over multiagent transition systems: weak/strong permission to
ensure or admit an outcome. The package bundles the semantics engine, a
truth-set-algebra witness toolkit, a Hilbert-style derivation checker, a
reduction to a next-step coalition game, seeded generators, a fixture corpus,
and a CLI (``permitmc`` or ``python -m permitmc``).
"""

from .algebra import (
    SearchBounds,
    SearchResult,
    TruthFamily,
    WitnessReport,
    closure_step,
    default_family,
    family_of,
    search_witness,
    verify_closure,
    verify_witness,
)
from .atl import AtlModel, AtlState, eval_atl, expand_model, translate_formula, verify_translation
from .checker import (
    ModelChecker,
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
from .deduction import (
    AXIOMS,
    AxiomSchema,
    Derivation,
    check_rule_locally,
    check_validity,
    derivation_from_dict,
    instantiate_axiom,
    is_tautology,
    verify_derivation,
)
from .errors import CapacityError, InputError, ParseError
from .fixtures import FIXTURE_IDS, load_derivation_fixture, load_fixture, run_fixture
from .formula import (
    Formula,
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    and_,
    format_formula,
    implies,
    modal_depth,
    parse,
    size,
)
from .generate import GenParams, random_formula, random_model
from .model import (
    TransitionSystem,
    TruthSet,
    is_deterministic,
    make_model,
    model_from_dict,
    model_to_dict,
    profiles_with_action,
    successors,
    validate_model,
)

__version__ = "0.1.0"
