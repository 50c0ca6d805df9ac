"""Curated fixture corpus: small witness systems and the factory scenario.

Fixtures ship as JSON under ``permitmc/data``; a fixture bundles one or more
model variants (the factory scenario varies only its permitted sets, the
single-agent pair has two systems) together with golden expectations that
``run_fixture`` replays against the checker and witness verifier. Derivation
fixtures live under ``permitmc/data/derivations``.

Regenerate the data files with ``scripts/build_fixture_data.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from .checker import model_check
from .errors import InputError
from .formula import Modality, parse
from .model import TransitionSystem, model_from_dict

if TYPE_CHECKING:
    from .deduction import Derivation

FIXTURE_IDS = (
    "fig1-wa",
    "fig2-we",
    "fig3-se",
    "fig4-sa",
    "fig5-single-agent",
    "factory",
)

DERIVATION_IDS = ("we-monotonicity", "se-antimonotonicity")


@dataclass(frozen=True)
class TruthSetExpectation:
    variant: str
    formula: str
    states: tuple[str, ...]


@dataclass(frozen=True)
class WitnessExpectation:
    variant: str
    target: Modality
    prop: str
    closed: tuple[Modality, ...]
    escape: tuple[str, ...]


@dataclass(frozen=True)
class PermittedSetExpectation:
    variant: str
    state: str
    agent: str
    actions: tuple[str, ...]


Expectation = TruthSetExpectation | WitnessExpectation | PermittedSetExpectation


@dataclass(frozen=True)
class Fixture:
    id: str
    description: str
    models: Mapping[str, TransitionSystem]
    expectations: tuple[Expectation, ...]

    @property
    def model(self) -> TransitionSystem:
        """The sole model of single-variant fixtures."""
        if len(self.models) != 1:
            raise InputError(f"fixture {self.id!r} has variants {sorted(self.models)}")
        return next(iter(self.models.values()))


def _read_data(*parts: str) -> Any:
    from importlib import resources  # pulls in zipfile and pathlib; only a read needs it

    ref = resources.files("permitmc").joinpath("data")
    for part in parts:
        ref = ref.joinpath(part)
    try:
        return json.loads(ref.read_text())
    except FileNotFoundError as exc:
        raise InputError(f"no packaged data file {'/'.join(parts)!r}") from exc


def _decode_expectation(raw: Any, where: str) -> Expectation:
    if not isinstance(raw, dict) or "kind" not in raw or "variant" not in raw:
        raise InputError(f"{where}: expectation entries need 'kind' and 'variant'")
    kind = raw["kind"]
    if kind == "truth_set":
        return TruthSetExpectation(raw["variant"], raw["formula"], tuple(raw["states"]))
    if kind == "witness":
        return WitnessExpectation(
            raw["variant"],
            Modality(raw["target"]),
            raw["prop"],
            tuple(Modality(x) for x in raw["closed"]),
            tuple(raw["escape"]),
        )
    if kind == "permitted_set":
        return PermittedSetExpectation(
            raw["variant"], raw["state"], raw["agent"], tuple(raw["actions"])
        )
    raise InputError(f"{where}: unknown expectation kind {kind!r}")


def load_fixture(fixture_id: str) -> Fixture:
    if fixture_id not in FIXTURE_IDS:
        raise InputError(f"unknown fixture {fixture_id!r}; catalog: {', '.join(FIXTURE_IDS)}")
    doc = _read_data(f"{fixture_id}.json")
    models = {
        variant: model_from_dict(raw) for variant, raw in doc.get("models", {}).items()
    }
    expectations = tuple(
        _decode_expectation(raw, fixture_id) for raw in doc.get("expectations", [])
    )
    return Fixture(doc["id"], doc.get("description", ""), models, expectations)


def load_derivation_fixture(name: str) -> Derivation:
    # Imported here, like verify_witness in run_fixture, so that listing or
    # exporting the catalog runs neither module.
    from .deduction import derivation_from_dict

    if name not in DERIVATION_IDS:
        raise InputError(
            f"unknown derivation fixture {name!r}; catalog: {', '.join(DERIVATION_IDS)}"
        )
    return derivation_from_dict(_read_data("derivations", f"{name}.json"))


@dataclass(frozen=True)
class ExpectationResult:
    fixture_id: str
    expectation: Expectation
    ok: bool
    got: str

    def describe(self) -> str:
        e = self.expectation
        status = "ok" if self.ok else "FAIL"
        if isinstance(e, TruthSetExpectation):
            what = f"[[{e.formula}]] on {e.variant}"
        elif isinstance(e, WitnessExpectation):
            what = f"witness {e.target.value} on {e.variant}"
        else:
            what = f"permitted({e.state!r}, {e.agent!r}) on {e.variant}"
        return f"[{status}] {self.fixture_id}: {what} -> {self.got}"


def run_fixture(fixture: Fixture) -> list[ExpectationResult]:
    """Replay every golden expectation; all results must come back ok."""
    from .algebra import verify_witness

    results: list[ExpectationResult] = []
    for e in fixture.expectations:
        model = fixture.models.get(e.variant)
        if model is None:
            results.append(ExpectationResult(fixture.id, e, False, f"no variant {e.variant!r}"))
            continue
        if isinstance(e, TruthSetExpectation):
            got = sorted(model_check(model, parse(e.formula)))
            results.append(
                ExpectationResult(fixture.id, e, got == sorted(e.states), " ".join(got))
            )
        elif isinstance(e, WitnessExpectation):
            report = verify_witness(model, e.target, e.prop, closed_modalities=e.closed)
            escape = sorted(report.escape_set)
            escape_ok = escape == sorted(e.escape)
            got = (
                f"ok={report.ok} escape={' '.join(escape)}"
                if report.ok
                else "; ".join(report.failures)
            )
            results.append(ExpectationResult(fixture.id, e, report.ok and escape_ok, got))
        else:
            got = sorted(model.permitted_set(e.state, e.agent))
            results.append(
                ExpectationResult(fixture.id, e, got == sorted(e.actions), " ".join(got))
            )
    return results
