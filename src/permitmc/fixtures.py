"""Curated fixture corpus: small witness systems and the factory scenario.

Fixtures ship as JSON under ``permitmc/data``; a fixture bundles one or more
model variants (the factory scenario varies only its permitted sets, the
single-agent pair has two systems) together with golden expectations that
``run_fixture`` replays against the checker and witness verifier. An
expectation stays the JSON object it is stored as; one table gives each kind
(``truth_set``, ``witness``, ``permitted_set``) its description format and its
replay function. Derivation fixtures live under ``permitmc/data/derivations``.

Regenerate the data files with ``scripts/build_fixture_data.py``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Mapping

from .checker import model_check
from .errors import InputError
from .formula import Modality, parse
from .model import TransitionSystem, model_from_dict
from .record import Record

FIXTURE_IDS = (
    "fig1-wa",
    "fig2-we",
    "fig3-se",
    "fig4-sa",
    "fig5-single-agent",
    "factory",
)

DERIVATION_IDS = ("we-monotonicity", "se-antimonotonicity")


class Fixture(Record):
    __slots__ = ("id", "models", "expectations")
    id: str
    models: Mapping[str, TransitionSystem]
    expectations: tuple[Mapping[str, Any], ...]  # the JSON objects, each with a known kind

    def __init__(
        self,
        id: str,
        models: Mapping[str, TransitionSystem],
        expectations: tuple[Mapping[str, Any], ...],
    ) -> None:
        set_id, set_models, set_expectations = self._setters
        set_id(self, id)
        set_models(self, models)
        set_expectations(self, expectations)

    @property
    def model(self) -> TransitionSystem:
        """The sole model of single-variant fixtures."""
        if len(self.models) != 1:
            raise InputError(f"fixture {self.id!r} has variants {sorted(self.models)}")
        return next(iter(self.models.values()))


def _read_data(*parts: str) -> Any:
    # The loader that ran this module reads the file, from a directory or an
    # archive alike. importlib.resources would pull in zipfile and pathlib,
    # and on Python 3.13 inspect as well.
    path = os.path.join(os.path.dirname(__file__), "data", *parts)
    try:
        return json.loads(__spec__.loader.get_data(path))
    except FileNotFoundError as exc:
        raise InputError(f"no packaged data file {'/'.join(parts)!r}") from exc


def load_fixture(fixture_id: str) -> Fixture:
    if fixture_id not in FIXTURE_IDS:
        raise InputError(f"unknown fixture {fixture_id!r}; catalog: {', '.join(FIXTURE_IDS)}")
    doc = _read_data(f"{fixture_id}.json")
    models = {
        variant: model_from_dict(raw) for variant, raw in doc.get("models", {}).items()
    }
    expectations = tuple(doc.get("expectations", []))
    for raw in expectations:
        if not isinstance(raw, dict) or "kind" not in raw or "variant" not in raw:
            raise InputError(f"{fixture_id}: expectation entries need 'kind' and 'variant'")
        if raw["kind"] not in _KINDS:
            raise InputError(f"{fixture_id}: unknown expectation kind {raw['kind']!r}")
    return Fixture(doc["id"], models, expectations)


def load_derivation_fixture(name: str) -> tuple:
    """The steps of a shipped derivation, as ``derivation_from_dict`` decodes them."""
    # Imported here, like verify_witness in _witness, so that listing or
    # exporting the catalog runs neither module.
    from .deduction import derivation_from_dict

    if name not in DERIVATION_IDS:
        raise InputError(
            f"unknown derivation fixture {name!r}; catalog: {', '.join(DERIVATION_IDS)}"
        )
    return derivation_from_dict(_read_data("derivations", f"{name}.json"))


def _truth_set(model: TransitionSystem, e: Mapping[str, Any]) -> tuple[bool, str]:
    got = sorted(model_check(model, parse(e["formula"])))
    return got == sorted(e["states"]), " ".join(got)


def _witness(model: TransitionSystem, e: Mapping[str, Any]) -> tuple[bool, str]:
    from .algebra import verify_witness

    closed = [Modality(x) for x in e["closed"]]
    report = verify_witness(model, Modality(e["target"]), e["prop"], closed_modalities=closed)
    if report["failures"]:
        return False, "; ".join(report["failures"])
    escape = report["escape"]["states"]
    return escape == sorted(e["escape"]), f"ok=True escape={' '.join(escape)}"


def _permitted_set(model: TransitionSystem, e: Mapping[str, Any]) -> tuple[bool, str]:
    got = sorted(model.permitted_set(e["state"], e["agent"]))
    return got == sorted(e["actions"]), " ".join(got)


# Replays one expectation on the model of its variant: (ok, what came out).
Replay = Callable[[TransitionSystem, Mapping[str, Any]], tuple[bool, str]]

# expectation kind -> (description format over the expectation's fields, replay)
_KINDS: dict[str, tuple[str, Replay]] = {
    "truth_set": ("[[{formula}]] on {variant}", _truth_set),
    "witness": ("witness {target} on {variant}", _witness),
    "permitted_set": ("permitted({state!r}, {agent!r}) on {variant}", _permitted_set),
}


def run_fixture(fixture: Fixture) -> list[tuple[bool, str]]:
    """Replay every golden expectation; all results must come back ok. Each
    result is ``(ok, line)``, the line naming the fixture, the expectation
    and what came out."""
    results: list[tuple[bool, str]] = []
    for e in fixture.expectations:
        model = fixture.models.get(e["variant"])
        what, replay = _KINDS[e["kind"]]
        if model is None:
            ok, got = False, f"no variant {e['variant']!r}"
        else:
            ok, got = replay(model, e)
        status = "ok" if ok else "FAIL"
        results.append((ok, f"[{status}] {fixture.id}: {what.format(**e)} -> {got}"))
    return results
