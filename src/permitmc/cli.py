"""Command-line front end.

Exit codes are disjoint across all subcommands: 0 on success, 1 on a semantic
failure (counterexample, rejected derivation, failed witness, translation
mismatch, fixture regression), 2 on usage or input errors, 3 on an internal
error (any other exception, reported on one stderr line), and 141 (128 +
SIGPIPE), with nothing on stderr, when stdout closes before the output is
written, as under ``| head``. Sets print in sorted state order and
``--json`` payloads carry a schema tag, so outputs diff cleanly in CI.
Randomized subcommands echo their seed for replay.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import types
from typing import Any, Sequence

from .checker import model_check
from .errors import CapacityError, InputError
from .formula import TOP_PROP, Modality, Prop, format_formula, parse, subformulas
from .model import (
    TransitionSystem,
    model_from_dict,
    model_to_dict,
    profile_cap,
    validate_model,
)


def _lazy_submodule(name: str) -> types.ModuleType:
    """``permitmc.<name>``, entered in ``sys.modules`` now but executed on its
    first attribute access (``importlib.util.LazyLoader``), so that a call
    runs only the modules its subcommand uses. Handlers reach these modules'
    functions through the module object, looking each one up at call time."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


algebra = _lazy_submodule("algebra")
atl = _lazy_submodule("atl")
deduction = _lazy_submodule("deduction")
fixtures = _lazy_submodule("fixtures")
generate = _lazy_submodule("generate")

SCHEMA = "permitmc/v1"

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


def _read_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests too deeply to decode") from exc


def _write_json(path: str | os.PathLike[str], payload: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_model(path: str, validate: bool = True) -> TransitionSystem:
    m = model_from_dict(_read_json(path))
    if validate:
        report = validate_model(m)
        if report:
            lines = "\n".join(f"  {v['message']}" for v in report)
            raise InputError(f"{path} violates model invariants:\n{lines}")
    return m


def _emit_json(payload: dict[str, Any]) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=False))


def _cmd_check(args: argparse.Namespace) -> int:
    m = _load_model(args.model, validate=not args.no_validate)
    f = parse(args.formula)
    ts = model_check(m, f)
    props = {g.name for g in subformulas(f) if isinstance(g, Prop)}
    missing = sorted(props - m.valuation.keys() - {TOP_PROP})
    if missing:
        print(f"note: false at every state, not in the valuation: {', '.join(missing)}",
              file=sys.stderr)
    if args.json:
        _emit_json({"formula": format_formula(f), "states": sorted(ts)})
    else:
        print(" ".join(sorted(ts)))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    m = _load_model(args.model, validate=False)
    report = validate_model(m)
    if args.json:
        _emit_json(
            {
                "valid": not report,
                "violations": report,
            }
        )
    else:
        for v in report:
            print(v["message"])
        print("valid" if not report else f"invalid ({len(report)} violations)")
    return EXIT_OK if not report else EXIT_SEMANTIC


def _at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise InputError(f"{option} must be at least {least}, got {value}")


def _cmd_axioms(args: argparse.Namespace) -> int:
    _at_least("--count", args.count, 0)
    _at_least("--depth", args.depth, 0)
    axioms = deduction.AXIOMS
    if args.axiom is not None and args.axiom not in axioms:
        raise InputError(f"unknown axiom {args.axiom!r}; known: {', '.join(sorted(axioms))}")
    m = _load_model(args.model)
    if not m.agents:  # every schema has an agent variable
        raise InputError(f"{args.model} has no agents to bind the axioms' agent variables to")
    import random

    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")
    ids = [args.axiom] if args.axiom is not None else sorted(axioms)
    schemas = [axioms[i] for i in ids for _ in range(args.count)]
    failures = 0
    for schema, instance, verdict in deduction.random_instances(m, schemas, rng, args.depth):
        failures += not verdict.valid
        status = "valid" if verdict.valid else f"counterexample at {verdict.counterexample}"
        print(f"{schema.id}: {status}: {format_formula(instance)}")
    return EXIT_SEMANTIC if failures else EXIT_OK


def _cmd_soundness(args: argparse.Namespace) -> int:
    _at_least("--count", args.count, 0)
    _at_least("--max-states", args.max_states, 1)
    _at_least("--max-agents", args.max_agents, 1)
    _at_least("--max-actions", args.max_actions, 1)
    _at_least("--props", args.props, 1)
    _at_least("--branching", args.branching, 1)
    _at_least("--depth", args.depth, 0)
    profile_cap()  # refuses a bad PERMITMC_PROFILE_CAP before the seed echo
    import random

    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")
    checks = counterexamples = 0
    for k in range(args.count):
        params = generate.GenParams(
            seed=rng.getrandbits(32),
            num_agents=rng.randint(1, args.max_agents),
            num_states=rng.randint(1, args.max_states),
            max_actions=args.max_actions,
            num_props=args.props,
            permitted_density=rng.choice((0.4, 0.7, 1.0)),
            branching=args.branching,
        )
        m = generate.random_model(params)
        ran, problems = deduction.soundness_round(m, rng, args.depth)
        checks += ran
        for p in problems:
            counterexamples += 1
            print(f"model {k} (gen seed {params.seed}): {p}")
    print(f"models: {args.count}  checks: {checks}  counterexamples: {counterexamples}")
    return EXIT_SEMANTIC if counterexamples else EXIT_OK


def _cmd_prove(args: argparse.Namespace) -> int:
    if args.builtin is not None:
        derivation = fixtures.load_derivation_fixture(args.builtin)
    else:
        derivation = deduction.derivation_from_dict(_read_json(args.derivation))
    verdict = deduction.verify_derivation(derivation)
    if args.json:
        _emit_json(
            {
                "accepted": verdict.accepted,
                "steps": len(derivation),
                "failed_step": verdict.failed_step,
                "reason": verdict.reason,
            }
        )
    elif verdict.accepted:
        print(f"accepted ({len(derivation)} steps)")
    else:
        print(f"rejected at step {verdict.failed_step}: {verdict.reason}")
    return EXIT_OK if verdict.accepted else EXIT_SEMANTIC


# witness options that only --search reads, by destination: a SearchBounds
# field or the seed. The parser leaves them unset unless given, so that
# --model can refuse them and --search keeps the SearchBounds defaults.
SEARCH_OPTIONS = {"max_states": "--max-states", "max_actions": "--max-actions",
                  "num_agents": "--agents", "allow_nonpermitted": "--all-permitted",
                  "max_candidates": "--max-candidates", "seed": "--seed"}


def _cmd_witness(args: argparse.Namespace) -> int:
    target = Modality(args.target)
    given = {dest: getattr(args, dest) for dest in SEARCH_OPTIONS if hasattr(args, dest)}
    if args.search:
        if args.prop is not None:
            raise InputError("--prop applies to --model, not to --search")
        seed = given.pop("seed", 0)
        result = algebra.search_witness(target, algebra.SearchBounds(**given), seed)
        print(f"seed: {seed}")  # after the search, so a refusal prints nothing
        if result.model is not None:
            _emit_json(
                {
                    "found": True,
                    "candidates": result.candidates,
                    "model": model_to_dict(result.model),
                    "report": result.report,
                }
            )
            return EXIT_OK
        _emit_json({"found": False, "exhausted": True, "candidates": result.candidates})
        return EXIT_SEMANTIC
    if not args.model:
        raise InputError("witness needs --model unless --search is given")
    if given:
        raise InputError(f"{SEARCH_OPTIONS[next(iter(given))]} applies to --search, not to --model")
    m = _load_model(args.model)
    report = algebra.verify_witness(m, target, "p" if args.prop is None else args.prop)
    _emit_json({"report": report})
    return EXIT_OK if report["ok"] else EXIT_SEMANTIC


def _cmd_translate(args: argparse.Namespace) -> int:
    if args.formula is not None and not args.verify:
        raise InputError("--formula needs --verify")
    m = _load_model(args.model)
    verdict = None
    if args.verify:  # checked before --out is written, so a usage error writes nothing
        if not args.formula:
            raise InputError("--verify needs --formula")
        verdict = atl.verify_translation(m, parse(args.formula))
    am = verdict.game if verdict is not None else atl.expand_model(m)
    _write_json(args.out, atl.atl_model_to_dict(am))
    print(f"wrote {args.out} ({len(am.states)} expanded states"
          f"{', with the bookkeeping agent' if am.has_nature else ''})")
    if verdict is None:
        return EXIT_OK
    st = verdict.mismatch_state
    if st is None:
        print(f"translation agrees at all {verdict.checked} expanded states")
        return EXIT_OK
    print(
        f"mismatch at <{st.base}, {{{', '.join(sorted(st.allowed))}}}>: "
        f"direct check says {verdict.expected}"
    )
    return EXIT_SEMANTIC


def _cmd_gen(args: argparse.Namespace) -> int:
    params = generate.GenParams(
        seed=args.seed,
        num_agents=args.agents,
        num_states=args.states,
        max_actions=args.max_actions,
        num_props=args.props,
        permitted_density=args.density,
        branching=args.branching,
    )
    m = generate.random_model(params)  # before the seed echo, so a refusal prints nothing
    print(f"seed: {args.seed}")
    payload = model_to_dict(m)
    if args.out:
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        _emit_json({"model": payload})
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.export:
        import pathlib

        out_dir = pathlib.Path(args.export)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot write {out_dir}: {exc}") from exc
        for fid in fixtures.FIXTURE_IDS:
            fx = fixtures.load_fixture(fid)
            for variant, model in fx.models.items():
                name = fid if len(fx.models) == 1 else f"{fid}.{variant}"
                path = out_dir / f"{name}.json"
                _write_json(path, model_to_dict(model))
                print(f"wrote {path}")
        return EXIT_OK
    if not args.run:
        for fid in fixtures.FIXTURE_IDS:
            fx = fixtures.load_fixture(fid)
            variants = ", ".join(sorted(fx.models))
            print(f"{fid}: variants [{variants}], {len(fx.expectations)} expectations")
        for name in fixtures.DERIVATION_IDS:
            print(f"derivation {name}")
        return EXIT_OK
    failures = 0
    for fid in fixtures.FIXTURE_IDS:
        for ok, line in fixtures.run_fixture(fixtures.load_fixture(fid)):
            if not ok:
                failures += 1
            print(line)
    for name in fixtures.DERIVATION_IDS:
        verdict = deduction.verify_derivation(fixtures.load_derivation_fixture(name))
        status = "ok" if verdict.accepted else "FAIL"
        if not verdict.accepted:
            failures += 1
        print(f"[{status}] derivation {name}")
    print(f"failures: {failures}")
    return EXIT_SEMANTIC if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permitmc",
        description="Model checking and reasoning for agentive permission modalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="compute the truth set of a formula in a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-validate", action="store_true", help="skip model validation")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("validate", help="report model invariant violations")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("axioms", help="check axiom instances for validity on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--axiom", help="restrict to one axiom id (A1..A9)")
    p.add_argument("--depth", type=int, default=2, help="formula depth for random bindings")
    p.add_argument("--count", type=int, default=3, help="instances per schema")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("soundness", help="fuzz axioms and rules over random models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="number of random models")
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--max-agents", type=int, default=3)
    p.add_argument("--max-actions", type=int, default=3)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--props", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=_cmd_soundness)

    p = sub.add_parser("prove", help="verify a derivation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--derivation", help="path to a derivation JSON file")
    source.add_argument(
        "--builtin", metavar="NAME", help="verify a shipped derivation, as listed by 'fixtures'"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("witness", help="verify or search for undefinability witnesses")
    p.add_argument("--target", required=True, choices=[m.value for m in Modality])
    source = p.add_mutually_exclusive_group()
    source.add_argument("--model", help="model to verify as a witness")
    source.add_argument("--search", action="store_true", help="search for a witness instead")
    p.add_argument("--prop", help="proposition of the --model witness (default: p)")
    search = p.add_argument_group("search options", "apply to --search only")
    for dest in ("max_states", "max_actions", "num_agents", "max_candidates", "seed"):
        option = SEARCH_OPTIONS[dest]
        search.add_argument(option, dest=dest, metavar=option[2:].replace("-", "_").upper(),
                            type=int, default=argparse.SUPPRESS)
    search.add_argument("--all-permitted", dest="allow_nonpermitted", action="store_false",
                        default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("translate", help="expand a model into the game structure")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--formula", help="formula for --verify")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("gen", help="generate a seeded random model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--max-actions", type=int, default=2)
    p.add_argument("--props", type=int, default=1)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--branching", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fixtures", help="list the fixture catalog or replay it")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--run", action="store_true", help="execute all golden expectations")
    mode.add_argument(
        "--export", metavar="DIR", help="write each fixture model as plain model JSON"
    )
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at interpreter exit, which
        # would meet the same closed pipe, stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
