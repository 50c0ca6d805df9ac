#!/usr/bin/env python3
"""Regenerate the fixture JSON shipped in src/permitmc/data/.

The curated models are defined here in code; expected values are either
written down directly (where they are forced by the model structure) or
computed by independent brute-force enumeration (the factory scenario).
Run from the repository root:

    python3 scripts/build_fixture_data.py
"""

from __future__ import annotations

import json
from pathlib import Path

from permitmc.model import make_model, model_from_dict, model_to_dict, validate_model

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "permitmc" / "data"

AB = ["a", "b"]
STU = ["s", "t", "u"]


def fig1():
    actions = {
        "s": {"a": ["1", "2"], "b": ["1", "2"]},
        "t": {"a": ["1"], "b": ["1"]},
        "u": {"a": ["1"], "b": ["1"]},
    }
    model = make_model(
        AB,
        STU,
        actions=actions,
        permitted=actions,
        transitions=[
            ("s", {"a": "1", "b": "1"}, "t"),
            ("s", {"a": "2", "b": "1"}, "t"),
            ("s", {"a": "1", "b": "2"}, "u"),
            ("s", {"a": "2", "b": "2"}, "t"),
            ("t", {"a": "1", "b": "1"}, "t"),
            ("u", {"a": "1", "b": "1"}, "u"),
        ],
        valuation={"p": ["u"]},
    )
    return {
        "id": "fig1-wa",
        "description": "Three-state two-agent system, all actions permitted; "
        "witnesses that WA is not expressible via WE, SE, SA.",
        "models": {"main": model_to_dict(model)},
        "expectations": [
            {"kind": "truth_set", "variant": "main", "formula": "p", "states": ["u"]},
            {"kind": "truth_set", "variant": "main", "formula": "!p", "states": ["s", "t"]},
            {"kind": "truth_set", "variant": "main", "formula": "WA[a] p", "states": ["s", "u"]},
            {"kind": "truth_set", "variant": "main", "formula": "WE[a] p", "states": ["u"]},
            {
                "kind": "witness",
                "variant": "main",
                "target": "WA",
                "prop": "p",
                "closed": ["WE", "SE", "SA"],
                "escape": ["s", "u"],
            },
        ],
    }


def fig2():
    actions = {
        "s": {"a": ["1", "2"], "b": ["1"]},
        "t": {"a": ["1"], "b": ["1", "2"]},
        "u": {"a": ["1"], "b": ["1"]},
    }
    model = make_model(
        AB,
        STU,
        actions=actions,
        permitted=actions,
        transitions=[
            ("s", {"a": "1", "b": "1"}, "u"),
            ("s", {"a": "2", "b": "1"}, "s"),
            ("t", {"a": "1", "b": "1"}, "u"),
            ("t", {"a": "1", "b": "2"}, "t"),
            ("u", {"a": "1", "b": "1"}, "u"),
        ],
        valuation={"p": ["u"]},
    )
    return {
        "id": "fig2-we",
        "description": "All actions permitted; agent a can force the p-state from s "
        "but only reach it unreliably from t. Witnesses WE.",
        "models": {"main": model_to_dict(model)},
        "expectations": [
            {"kind": "truth_set", "variant": "main", "formula": "p", "states": ["u"]},
            {"kind": "truth_set", "variant": "main", "formula": "WE[a] p", "states": ["s", "u"]},
            {
                "kind": "witness",
                "variant": "main",
                "target": "WE",
                "prop": "p",
                "closed": ["WA", "SE", "SA"],
                "escape": ["s", "u"],
            },
        ],
    }


def fig3():
    model = make_model(
        AB,
        STU,
        actions={
            "s": {"a": ["1", "-1", "-2"], "b": ["1"]},
            "t": {"a": ["1", "-1"], "b": ["1"]},
            "u": {"a": ["1"], "b": ["1"]},
        },
        permitted={
            "s": {"a": ["1"], "b": ["1"]},
            "t": {"a": ["1"], "b": ["1"]},
            "u": {"a": ["1"], "b": ["1"]},
        },
        transitions=[
            ("s", {"a": "1", "b": "1"}, "t"),
            ("s", {"a": "-1", "b": "1"}, "u"),
            ("s", {"a": "-2", "b": "1"}, "t"),
            ("t", {"a": "1", "b": "1"}, "t"),
            ("t", {"a": "-1", "b": "1"}, "u"),
            ("t", {"a": "-1", "b": "1"}, "t"),
            ("u", {"a": "1", "b": "1"}, "u"),
        ],
        valuation={"p": ["u"]},
    )
    return {
        "id": "fig3-se",
        "description": "Negative action names mark the non-permitted actions "
        "(names carry no semantics). At s a non-permitted action forces the "
        "p-state, so SE escapes the family while WA, WE, SA stay inside.",
        "models": {"main": model_to_dict(model)},
        "expectations": [
            {"kind": "truth_set", "variant": "main", "formula": "p", "states": ["u"]},
            {"kind": "truth_set", "variant": "main", "formula": "SE[a] p", "states": ["t", "u"]},
            {
                "kind": "witness",
                "variant": "main",
                "target": "SE",
                "prop": "p",
                "closed": ["WA", "WE", "SA"],
                "escape": ["t", "u"],
            },
        ],
    }


def fig4():
    model = make_model(
        AB,
        STU,
        actions={
            "s": {"a": ["1", "-1", "-2"], "b": ["1"]},
            "t": {"a": ["1", "-1"], "b": ["1"]},
            "u": {"a": ["1", "-1"], "b": ["1"]},
        },
        permitted={
            "s": {"a": ["1"], "b": ["1"]},
            "t": {"a": ["1"], "b": ["1"]},
            "u": {"a": ["1"], "b": ["1"]},
        },
        transitions=[
            ("s", {"a": "1", "b": "1"}, "t"),
            ("s", {"a": "1", "b": "1"}, "u"),
            ("s", {"a": "-1", "b": "1"}, "u"),
            ("s", {"a": "-1", "b": "1"}, "t"),
            ("s", {"a": "-2", "b": "1"}, "t"),
            ("t", {"a": "1", "b": "1"}, "t"),
            ("t", {"a": "1", "b": "1"}, "u"),
            ("t", {"a": "-1", "b": "1"}, "t"),
            ("u", {"a": "1", "b": "1"}, "u"),
            ("u", {"a": "-1", "b": "1"}, "u"),
        ],
        valuation={"p": ["u"]},
    )
    return {
        "id": "fig4-sa",
        "description": "Non-permitted actions at every state; only at t do all "
        "p-admitting actions stay permitted, so SA escapes the family.",
        "models": {"main": model_to_dict(model)},
        "expectations": [
            {"kind": "truth_set", "variant": "main", "formula": "p", "states": ["u"]},
            {"kind": "truth_set", "variant": "main", "formula": "SA[a] p", "states": ["t"]},
            {
                "kind": "witness",
                "variant": "main",
                "target": "SA",
                "prop": "p",
                "closed": ["WA", "WE", "SE"],
                "escape": ["t"],
            },
        ],
    }


def fig5():
    target_wa = make_model(
        ["a"],
        STU,
        actions={"s": {"a": ["1", "-1"]}, "t": {"a": ["1", "-1"]}, "u": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}, "t": {"a": ["1"]}, "u": {"a": ["1"]}},
        transitions=[
            ("s", {"a": "1"}, "u"),
            ("s", {"a": "-1"}, "u"),
            ("t", {"a": "1"}, "t"),
            ("t", {"a": "-1"}, "u"),
            ("u", {"a": "1"}, "u"),
        ],
        valuation={"p": ["u"]},
    )
    target_sa = make_model(
        ["a"],
        STU,
        actions={"s": {"a": ["1", "-1"]}, "t": {"a": ["1"]}, "u": {"a": ["1"]}},
        permitted={"s": {"a": ["1"]}, "t": {"a": ["1"]}, "u": {"a": ["1"]}},
        transitions=[
            ("s", {"a": "1"}, "t"),
            ("s", {"a": "-1"}, "u"),
            ("t", {"a": "1"}, "t"),
            ("u", {"a": "1"}, "u"),
        ],
        valuation={"p": ["u"]},
    )
    return {
        "id": "fig5-single-agent",
        "description": "Single-agent deterministic pair: the weak modalities "
        "(WA = WE here) and the strong ones (SA = SE) cannot define each other.",
        "models": {"target-wa": model_to_dict(target_wa), "target-sa": model_to_dict(target_sa)},
        "expectations": [
            {"kind": "truth_set", "variant": "target-wa", "formula": "WA[a] p", "states": ["s", "u"]},
            {"kind": "truth_set", "variant": "target-wa", "formula": "WE[a] p", "states": ["s", "u"]},
            {
                "kind": "witness",
                "variant": "target-wa",
                "target": "WA",
                "prop": "p",
                "closed": ["SA", "SE"],
                "escape": ["s", "u"],
            },
            {
                "kind": "witness",
                "variant": "target-wa",
                "target": "WE",
                "prop": "p",
                "closed": ["SA", "SE"],
                "escape": ["s", "u"],
            },
            {"kind": "truth_set", "variant": "target-sa", "formula": "SA[a] p", "states": ["t", "u"]},
            {"kind": "truth_set", "variant": "target-sa", "formula": "SE[a] p", "states": ["t", "u"]},
            {
                "kind": "witness",
                "variant": "target-sa",
                "target": "SA",
                "prop": "p",
                "closed": ["WA", "WE"],
                "escape": ["t", "u"],
            },
            {
                "kind": "witness",
                "variant": "target-sa",
                "target": "SE",
                "prop": "p",
                "closed": ["WA", "WE"],
                "escape": ["t", "u"],
            },
        ],
    }


# --- the polluted-river factory scenario -------------------------------------------

STEP = 5
LARGE_MAX = 100
SMALL_MAX = 60
KILL_THRESHOLD = 100  # combined daily amount strictly above this kills the fish

LARGE_AMOUNTS = list(range(0, LARGE_MAX + 1, STEP))
SMALL_AMOUNTS = list(range(0, SMALL_MAX + 1, STEP))


def fish_survives(large: int, small: int) -> bool:
    return large + small <= KILL_THRESHOLD


def ensuring_amounts() -> list[int]:
    """Amounts the large factory can dump that keep the fish alive no matter
    what the small factory does (brute-force over all pairs)."""
    return [l for l in LARGE_AMOUNTS if all(fish_survives(l, s) for s in SMALL_AMOUNTS)]


def admitting_amounts() -> list[int]:
    """Amounts that leave at least one survival possibility open."""
    return [l for l in LARGE_AMOUNTS if any(fish_survives(l, s) for s in SMALL_AMOUNTS)]


def factory_model(permitted_large: list[int]):
    states = ["start", "alive", "dead"]
    actions = {
        "start": {"large": [str(a) for a in LARGE_AMOUNTS], "small": [str(a) for a in SMALL_AMOUNTS]},
        "alive": {"large": ["0"], "small": ["0"]},
        "dead": {"large": ["0"], "small": ["0"]},
    }
    permitted = {
        "start": {"large": [str(a) for a in permitted_large], "small": [str(a) for a in SMALL_AMOUNTS]},
        "alive": {"large": ["0"], "small": ["0"]},
        "dead": {"large": ["0"], "small": ["0"]},
    }
    transitions = [
        ("start", {"large": str(l), "small": str(s)}, "alive" if fish_survives(l, s) else "dead")
        for l in LARGE_AMOUNTS
        for s in SMALL_AMOUNTS
    ]
    transitions.append(("alive", {"large": "0", "small": "0"}, "alive"))
    transitions.append(("dead", {"large": "0", "small": "0"}, "dead"))
    return make_model(["large", "small"], states, actions, permitted, transitions,
                      {"fishAlive": ["alive"]})


def factory():
    ensures = ensuring_amounts()
    admits = admitting_amounts()
    contract30 = [a for a in LARGE_AMOUNTS if a >= 30]
    contract50 = [a for a in LARGE_AMOUNTS if a >= 50]

    # Start-state verdicts derived from the same enumeration, independently of
    # the model checker: the sinks are self-loops, so the alive state satisfies
    # all four modalities over fishAlive and the dead state none of the weak ones.
    def weak_ensure_states(permitted_large):
        return (["start"] if set(permitted_large) & set(ensures) else []) + ["alive"]

    def weak_admit_states(permitted_large):
        return (["start"] if set(permitted_large) & set(admits) else []) + ["alive"]

    def strong_ensure_states(permitted_large):
        head = ["start"] if set(ensures) <= set(permitted_large) else []
        return head + ["alive", "dead"]

    def strong_admit_states(permitted_large):
        head = ["start"] if set(admits) <= set(permitted_large) else []
        return head + ["alive", "dead"]

    variants = {
        "sa-regulation": admits,
        "se-regulation": ensures,
        "contract-min30": contract30,
        "contract-min50": contract50,
    }
    expectations = []
    for name, permitted_large in variants.items():
        expectations.append(
            {
                "kind": "permitted_set",
                "variant": name,
                "state": "start",
                "agent": "large",
                "actions": [str(a) for a in permitted_large],
            }
        )
        expectations.append(
            {
                "kind": "truth_set",
                "variant": name,
                "formula": "SA[large] fishAlive",
                "states": sorted(strong_admit_states(permitted_large)),
            }
        )
        expectations.append(
            {
                "kind": "truth_set",
                "variant": name,
                "formula": "SE[large] fishAlive",
                "states": sorted(strong_ensure_states(permitted_large)),
            }
        )
        expectations.append(
            {
                "kind": "truth_set",
                "variant": name,
                "formula": "WE[large] fishAlive",
                "states": sorted(weak_ensure_states(permitted_large)),
            }
        )
        expectations.append(
            {
                "kind": "truth_set",
                "variant": name,
                "formula": "WA[large] fishAlive",
                "states": sorted(weak_admit_states(permitted_large)),
            }
        )
    return {
        "id": "factory",
        "description": "Two factories dump a pollutant into a river in 5 g/day "
        "steps (large 0..100, small 0..60); over 100 g/day combined kills the "
        "fish. Variants pick the large factory's permitted amounts per "
        "regulation or contract.",
        "models": {name: model_to_dict(factory_model(p)) for name, p in variants.items()},
        "expectations": expectations,
    }


BUILDERS = (fig1, fig2, fig3, fig4, fig5, factory)


def render(build) -> tuple[str, str]:
    """The file name and JSON text of the fixture that ``build`` returns,
    once every model in it validates."""
    doc = build()
    for variant, raw in doc["models"].items():
        report = validate_model(model_from_dict(raw))
        if report:
            raise SystemExit(f"{doc['id']}/{variant} is invalid: {report[0]['message']}")
    return f"{doc['id']}.json", json.dumps(doc, indent=2, sort_keys=False) + "\n"


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for build in BUILDERS:
        name, text = render(build)
        path = DATA_DIR / name
        path.write_text(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
