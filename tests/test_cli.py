import json
import resource
import subprocess
import sys

import pytest

from permitmc.cli import main
from permitmc.fixtures import load_fixture
from permitmc.model import make_model, model_to_dict


@pytest.fixture(scope="module")
def fig1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fig1.json"
    path.write_text(json.dumps(model_to_dict(load_fixture("fig1-wa").model)))
    return str(path)


@pytest.fixture()
def broken_model_path(tmp_path):
    m = model_to_dict(load_fixture("fig1-wa").model)
    m["permitted"]["s"]["a"] = []
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(m))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_outputs_sorted_states(fig1_path, capsys):
    code, out, _ = run_cli(capsys, "check", "--model", fig1_path, "--formula", "WA[a] p")
    assert code == 0
    assert out.strip() == "s u"


def test_check_false_is_empty_but_ok(fig1_path, capsys):
    code, out, _ = run_cli(capsys, "check", "--model", fig1_path, "--formula", "false")
    assert code == 0
    assert out.strip() == ""


def test_check_json_schema(fig1_path, capsys):
    code, out, _ = run_cli(
        capsys, "check", "--model", fig1_path, "--formula", "WE[a] p", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "permitmc/v1"
    assert doc["states"] == ["u"]


def test_check_bad_formula_is_usage_error(fig1_path, capsys):
    code, _, err = run_cli(capsys, "check", "--model", fig1_path, "--formula", "p |")
    assert code == 2
    assert "error:" in err


def test_check_notes_the_propositions_the_valuation_lacks(fig1_path, capsys):
    argv = ["check", "--model", fig1_path, "--formula", "r | q & !r | p & true | false"]
    note = "note: false at every state, not in the valuation: q, r\n"
    assert run_cli(capsys, *argv) == (0, "u\n", note)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, json.loads(out)["states"], err) == (0, ["u"], note)
    argv = ["check", "--model", fig1_path, "--formula", "true | p"]
    assert run_cli(capsys, *argv) == (0, "s t u\n", "")


def test_check_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "--model", "/nope.json", "--formula", "p")
    assert code == 2


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe{", "is not valid JSON: "), (b"[" * 100_000 + b"]" * 100_000, "nests too deeply")],
)
def test_check_undecodable_file_is_usage_error(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "check", "--model", str(bad), "--formula", "p")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad} {message}") and err.count("\n") == 1


def test_check_rejects_invalid_model_unless_disabled(broken_model_path, capsys):
    code, _, err = run_cli(
        capsys, "check", "--model", broken_model_path, "--formula", "p"
    )
    assert code == 2
    code, out, _ = run_cli(
        capsys, "check", "--model", broken_model_path, "--formula", "p", "--no-validate"
    )
    assert code == 0
    assert out.strip() == "u"


def test_check_modal_formula_on_invalid_model(tmp_path, capsys):
    # At s, one entry misses agent b and another gives b the unavailable action
    # "3"; each counts for a's action but for none of b's. At t, a's permitted
    # action "9" is unavailable.
    one = {"a": ["1"], "b": ["1"]}
    model = {
        "agents": ["a", "b"],
        "states": ["s", "t", "u"],
        "actions": {"s": {"a": ["1", "2"], "b": ["1", "2"]}, "t": one, "u": one},
        "permitted": {"s": one, "t": {"a": ["1", "9"], "b": ["1"]}, "u": one},
        "transitions": [
            {"from": "s", "profile": {"a": "1", "b": "1"}, "to": "t"},
            {"from": "s", "profile": {"a": "1", "b": "2"}, "to": "t"},
            {"from": "s", "profile": {"a": "2", "b": "1"}, "to": "u"},
            {"from": "s", "profile": {"a": "2", "b": "2"}, "to": "u"},
            {"from": "s", "profile": {"a": "1"}, "to": "u"},
            {"from": "s", "profile": {"a": "1", "b": "3"}, "to": "u"},
            {"from": "t", "profile": {"a": "1", "b": "1"}, "to": "t"},
            {"from": "u", "profile": {"a": "1", "b": "1"}, "to": "u"},
        ],
        "valuation": {"p": ["u"]},
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(model))
    assert run_cli(capsys, "check", "--model", str(path), "--formula", "WE[a] !p")[0] == 2
    # WE[a] !p: a's permitted action 1 at s reaches t and u, so only t holds it.
    # SE[b] p: b's non-permitted action 2 at s reaches t, so it does not
    # ensure p; the unavailable action 3 is no action of b.
    # WE[a] false: the unavailable "9" does not vacuously ensure false at t.
    cases = (
        ("WE[a] !p", "t"),
        ("SE[b] p", "s t u"),
        ("SE[b] p & !WE[a] !p", "s u"),
        ("WE[a] false", ""),
    )
    for formula, expected in cases:
        code, out, err = run_cli(
            capsys, "check", "--model", str(path), "--formula", formula, "--no-validate"
        )
        assert (code, out.strip(), err) == (0, expected, "")


@pytest.mark.parametrize("formula", ["!p", "WE[a] p"])
def test_check_no_validate_rejects_valuation_outside_states(tmp_path, capsys, formula):
    doc = model_to_dict(load_fixture("fig1-wa").model)
    doc["valuation"]["p"].append("zz")
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "check", "--model", str(path), "--formula", formula, "--no-validate"
    )
    assert (code, out) == (2, "")
    assert "truth set members outside the state universe: ['zz']" in err


def test_unexpected_exception_exits_3_with_one_line(fig1_path, capsys, monkeypatch):
    def crash(m, f):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("permitmc.cli.model_check", crash)
    code, out, err = run_cli(capsys, "check", "--model", fig1_path, "--formula", "p")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


def test_usage_error_exit_code(capsys):
    assert main(["check", "--formula", "p"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["soundness", "--max-states", "0"], "--max-states must be at least 1, got 0"),
        (["soundness", "--max-agents", "0"], "--max-agents must be at least 1, got 0"),
        (["soundness", "--count", "-2"], "--count must be at least 0, got -2"),
        (["axioms", "--model", "FIG1", "--count", "-1"], "--count must be at least 0, got -1"),
        (["axioms", "--model", "FIG1", "--depth", "-1"], "--depth must be at least 0, got -1"),
        (["soundness", "--props", "0"], "--props must be at least 1, got 0"),
        (["soundness", "--branching", "0"], "--branching must be at least 1, got 0"),
        (["soundness", "--max-actions", "0"], "--max-actions must be at least 1, got 0"),
        (["soundness", "--depth", "-1"], "--depth must be at least 0, got -1"),
        (["witness", "--target", "WE", "--search", "--max-candidates", "0"],
         "search bounds must be at least 1"),
        (["witness", "--target", "WE", "--search", "--max-candidates", "-1"],
         "search bounds must be at least 1"),
        (["axioms", "--model", "FIG1", "--axiom", "A99"],
         "unknown axiom 'A99'; known: A1, A2, A3, A4, A5, A6, A7, A8, A9"),
        (["axioms", "--model", "FIG1", "--axiom", ""],
         "unknown axiom ''; known: A1, A2, A3, A4, A5, A6, A7, A8, A9"),
    ],
    ids=[
        "soundness-max-states-0",
        "soundness-max-agents-0",
        "soundness-count-negative",
        "axioms-count-negative",
        "axioms-depth-negative",
        "soundness-props-0",
        "soundness-branching-0",
        "soundness-max-actions-0",
        "soundness-depth-negative",
        "witness-max-candidates-0",
        "witness-max-candidates-negative",
        "axioms-unknown-id",
        "axioms-empty-id",
    ],
)
def test_count_out_of_range_is_usage_error(fig1_path, capsys, argv, message):
    argv = [fig1_path if a == "FIG1" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_check_runs_only_the_modules_it_uses(fig1_path):
    # A module whose body ran has the plain module type; one the CLI
    # registered lazily and never touched is still a LazyLoader stand-in.
    script = (
        "import sys, types\n"
        "from permitmc.cli import main\n"
        f"code = main(['check', '--model', {fig1_path!r}, '--formula', 'WA[a] p'])\n"
        "ran = [n for n, m in sys.modules.items()"
        " if n.startswith('permitmc.') and type(m) is types.ModuleType]\n"
        "print(code, *sorted(ran))\n"
        "import permitmc\n"
        "lazy = ('algebra', 'atl', 'deduction', 'fixtures', 'generate')\n"
        "print(all(getattr(permitmc, n) is sys.modules['permitmc.' + n] for n in lazy))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *_, line, bound = proc.stdout.splitlines()
    assert bound == "True"  # each lazily registered module is an attribute of the package
    code, *ran = line.split()
    assert code == "0"
    assert {"permitmc.checker", "permitmc.formula", "permitmc.model"} <= set(ran)
    unused = {
        "permitmc.algebra", "permitmc.atl", "permitmc.deduction", "permitmc.fixtures",
        "permitmc.generate",
    }
    assert unused.isdisjoint(ran)


def test_validate_ok_and_failing(fig1_path, broken_model_path, capsys):
    assert run_cli(capsys, "validate", "--model", fig1_path)[0] == 0
    code, out, _ = run_cli(capsys, "validate", "--model", broken_model_path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert any(v["code"] == "empty-permitted" for v in doc["violations"])


@pytest.mark.parametrize(
    "agent, violation, message",
    [
        ("x y", "unwritable-name", "agent 'x y' is not an identifier"),
        ("__nature", "reserved-agent", "model declares reserved agent '__nature'"),
    ],
    ids=["space", "nature"],
)
def test_validate_refuses_unaddressable_agent_names(tmp_path, capsys, agent, violation, message):
    # The profile has two successors, so a game translation would add its
    # own bookkeeping agent, __nature.
    actions = {"s": {agent: ["1"]}, "t": {agent: ["1"]}}
    m = make_model(
        [agent],
        ["s", "t"],
        actions,
        actions,
        [("s", {agent: "1"}, "s"), ("s", {agent: "1"}, "t"), ("t", {agent: "1"}, "t")],
        {"p": ["t"]},
    )
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(m)))
    assert run_cli(capsys, "validate", "--model", str(path)) == (
        1, f"{message}\ninvalid (1 violations)\n", ""
    )
    code, out, _ = run_cli(capsys, "validate", "--model", str(path), "--json")
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"code": violation, "message": message, "state": None, "agent": agent}
    ]
    code, out, err = run_cli(
        capsys, "translate", "--model", str(path), "--out", str(tmp_path / "atl.json")
    )
    assert (code, out) == (2, "")
    assert err == f"error: {path} violates model invariants:\n  {message}\n"


def test_axioms_all_valid(fig1_path, capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--model", fig1_path, "--seed", "5", "--count", "1"
    )
    assert code == 0
    assert "seed: 5" in out
    assert out.count("valid") >= 9


def test_axioms_unknown_id(fig1_path, capsys):
    assert run_cli(capsys, "axioms", "--model", fig1_path, "--axiom", "A99")[0] == 2


def test_soundness_smoke(capsys):
    code, out, _ = run_cli(capsys, "soundness", "--count", "4", "--seed", "2")
    assert code == 0
    assert "counterexamples: 0" in out


def test_soundness_counts_ir4_only_on_models_with_two_agents(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "soundness", "--count", "3", "--max-agents", "1")
    assert (code, out.splitlines()[-1]) == (0, "models: 3  checks: 42  counterexamples: 0")
    # Each schema check instantiates once, each rule check is one call.
    from permitmc import deduction

    calls = []
    for name in ("instantiate_axiom", "check_rule_locally"):
        real = getattr(deduction, name)
        monkeypatch.setattr(deduction, name, lambda *a, real=real: calls.append(a) or real(*a))
    code, out, _ = run_cli(capsys, "soundness", "--count", "20", "--seed", "5")
    assert code == 0 and 20 * 14 < len(calls) < 20 * 15
    assert out.splitlines()[-1] == f"models: 20  checks: {len(calls)}  counterexamples: 0"


@pytest.mark.parametrize(
    "cap, message",
    [
        ("0", "PERMITMC_PROFILE_CAP must be at least 1, got 0"),
        ("abc", "PERMITMC_PROFILE_CAP must be an integer, got 'abc'"),
    ],
)
def test_soundness_refuses_a_bad_profile_cap_before_the_seed(monkeypatch, capsys, cap, message):
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", cap)
    code, out, err = run_cli(capsys, "soundness", "--count", "1")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


def test_prove_builtin_and_rejection(tmp_path, capsys):
    assert run_cli(capsys, "prove", "--builtin", "we-monotonicity")[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"steps": [{"formula": "WE[b] true", "by": "axiom:A2", "bind": {"a": "a"}}]}
        )
    )
    code, out, _ = run_cli(capsys, "prove", "--derivation", str(bad), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["accepted"] is False and doc["failed_step"] == 1


@pytest.mark.parametrize(
    "step",
    [
        {"formula": 5, "by": "taut"},
        {"formula": "p", "by": "ir4:1", "as": "a"},
        {"formula": "!WA[a] false", "by": "axiom:A1", "bind": {"a": 5}},
        {"formula": "p | !p", "by": "taut:7"},
    ],
)
def test_prove_bad_derivation_field_is_usage_error(tmp_path, capsys, step):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"steps": [step]}))
    code, out, err = run_cli(capsys, "prove", "--derivation", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--builtin", "we-monotonicity", "--derivation", "proof.json"],
        ["--builtin", "nope"],
        ["--builtin", ""],
    ],
    ids=["no-source", "both-sources", "unknown-builtin", "empty-builtin"],
)
def test_prove_needs_exactly_one_known_source(capsys, argv):
    code, out, err = run_cli(capsys, "prove", *argv)
    assert (code, out) == (2, "")
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_witness_verify_and_refute(fig1_path, capsys):
    code, out, _ = run_cli(capsys, "witness", "--target", "WA", "--model", fig1_path)
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True
    code, out, _ = run_cli(capsys, "witness", "--target", "WE", "--model", fig1_path)
    assert code == 1


def test_witness_report_json_fig1_we(fig1_path, capsys):
    code, out, err = run_cli(capsys, "witness", "--target", "WE", "--model", fig1_path)
    assert (code, err) == (1, "")
    report = {
        "ok": False,
        "target": "WE",
        "prop": "p",
        "agent": "a",
        "family": [[], ["s", "t"], ["s", "t", "u"], ["u"]],
        "closed_under": [],
        "escape": {"formula": "WE[a] p", "states": ["u"]},
        "failures": [
            "WA[a] maps {u} to {s, u}, outside the family",
            "WA[b] maps {u} to {s, u}, outside the family",
            "WE[a] p has truth set {u}, which stays in the family",
        ],
    }
    assert out == json.dumps({"schema": "permitmc/v1", "report": report}, indent=2) + "\n"


def test_witness_report_json_fig1_wa(fig1_path, capsys):
    code, out, err = run_cli(capsys, "witness", "--target", "WA", "--model", fig1_path)
    assert (code, err) == (0, "")
    report = {
        "ok": True,
        "target": "WA",
        "prop": "p",
        "agent": "a",
        "family": [[], ["s", "t"], ["s", "t", "u"], ["u"]],
        "closed_under": [
            ["WE", "a"], ["WE", "b"], ["SE", "a"], ["SE", "b"], ["SA", "a"], ["SA", "b"]
        ],
        "escape": {"formula": "WA[a] p", "states": ["s", "u"]},
        "failures": [],
    }
    assert out == json.dumps({"schema": "permitmc/v1", "report": report}, indent=2) + "\n"


def test_witness_search_found_and_exhausted(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness", "--target", "WE", "--search", "--max-states", "3",
        "--max-actions", "2", "--all-permitted", "--seed", "3",
    )
    assert code == 0
    assert out.startswith("seed: 3")
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["found"] is True and doc["report"]["ok"] is True
    code, out, _ = run_cli(
        capsys,
        "witness", "--target", "SE", "--search", "--max-states", "3",
        "--max-actions", "2", "--all-permitted", "--seed", "3",
        "--max-candidates", "200",
    )
    assert code == 1
    assert json.loads(out.split("\n", 1)[1]) == {
        "schema": "permitmc/v1", "found": False, "exhausted": True, "candidates": 200
    }


def test_witness_search_over_the_profile_cap_is_usage_error():
    # Run in a child under a 1.5 GB address-space limit, so that a search
    # that builds the candidate's profiles fails with MemoryError instead of
    # exhausting the machine.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    proc = subprocess.run(
        [sys.executable, "-m", "permitmc", "witness", "--search", "--target", "WA",
         "--agents", "44", "--max-actions", "2", "--max-candidates", "1"],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: requested model needs 27262976 profiles, over the cap of 1000000\n"
    )


def test_witness_requires_model_or_search(capsys):
    assert run_cli(capsys, "witness", "--target", "WA")[0] == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--search", "--model", "/nonexistent.json"],
         "argument --model: not allowed with argument --search"),
        (["--model", "/nonexistent.json", "--search", "--prop", "q"],
         "argument --search: not allowed with argument --model"),
        (["--search", "--prop", "q"], "error: --prop applies to --model, not to --search"),
    ],
    ids=["model-and-search", "search-after-model", "prop-with-search"],
)
def test_witness_refuses_options_it_would_ignore(capsys, argv, error):
    code, out, err = run_cli(capsys, "witness", "--target", "WA", "--max-candidates", "5", *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(error)


@pytest.fixture()
def agentless_path(tmp_path):
    path = tmp_path / "agentless.json"
    path.write_text(json.dumps({
        "agents": [],
        "states": ["s"],
        "actions": {},
        "permitted": {},
        "transitions": [{"from": "s", "profile": {}, "to": "s"}],
        "valuation": {"p": ["s"]},
    }))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["axioms"], ["witness", "--target", "WA"]],
    ids=["axioms", "witness"],
)
def test_agentless_model_is_usage_error(agentless_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--model", agentless_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_agentless_model_checks_validates_and_translates(agentless_path, tmp_path, capsys):
    path = agentless_path
    assert run_cli(capsys, "check", "--model", path, "--formula", "p") == (0, "s\n", "")
    assert run_cli(capsys, "validate", "--model", path) == (0, "valid\n", "")
    out_path = tmp_path / "atl.json"
    code, out, _ = run_cli(
        capsys, "translate", "--model", path, "--out", str(out_path), "--verify", "--formula", "p"
    )
    assert code == 0
    assert out.splitlines()[1] == "translation agrees at all 1 expanded states"


def test_translate_verify_expands_once(fig1_path, tmp_path, capsys, monkeypatch):
    from permitmc import atl

    calls = []
    expand = atl.expand_model
    monkeypatch.setattr(atl, "expand_model", lambda *args: calls.append(args) or expand(*args))
    out_path = tmp_path / "atl.json"
    code, _, _ = run_cli(
        capsys,
        "translate", "--model", fig1_path, "--out", str(out_path),
        "--verify", "--formula", "WA[a] p",
    )
    assert code == 0
    assert len(calls) == 1
    assert len(json.loads(out_path.read_text())["states"]) == 12


def test_translate_and_verify(fig1_path, tmp_path, capsys):
    out_path = tmp_path / "atl.json"
    code, out, _ = run_cli(
        capsys,
        "translate", "--model", fig1_path, "--out", str(out_path),
        "--verify", "--formula", "WA[a] p",
    )
    assert code == 0
    assert "agrees" in out
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "permitmc.atl/v1"
    assert len(doc["states"]) == 12


def test_translate_verify_mismatch_exits_1_and_still_writes(fig1_path, tmp_path, capsys,
                                                            monkeypatch):
    from permitmc import atl
    from permitmc.formula import Neg

    translate = atl.translate_formula
    monkeypatch.setattr(atl, "translate_formula", lambda f, am: Neg(translate(f, am)))
    out_path = tmp_path / "atl.json"
    code, out, err = run_cli(
        capsys,
        "translate", "--model", fig1_path, "--out", str(out_path),
        "--verify", "--formula", "WA[a] p",
    )
    assert (code, err) == (1, "")
    assert out == (
        f"wrote {out_path} (12 expanded states)\n"
        "mismatch at <s, {}>: direct check says True\n"
    )
    assert len(json.loads(out_path.read_text())["states"]) == 12


@pytest.mark.parametrize(
    "extra, message",
    [
        ((), "--verify needs --formula"),
        (("--formula", "WA[a"), None),
    ],
    ids=["no-formula", "unparsable"],
)
def test_translate_usage_error_writes_nothing(fig1_path, tmp_path, capsys, extra, message):
    out_path = tmp_path / "atl.json"
    code, out, err = run_cli(
        capsys, "translate", "--model", fig1_path, "--out", str(out_path), "--verify", *extra
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and (message is None or err == f"error: {message}\n")
    assert not out_path.exists()


def test_translate_verify_has_no_modal_depth_cap(tmp_path, capsys):
    model_path, out_path = tmp_path / "fig3.json", tmp_path / "atl.json"
    model_path.write_text(json.dumps(model_to_dict(load_fixture("fig3-se").model)))
    code, out, err = run_cli(
        capsys,
        "translate", "--model", str(model_path), "--out", str(out_path),
        "--verify", "--formula", "WA[a] WE[b] SE[a] SA[b] p",
    )
    assert (code, err) == (0, "")
    assert out == (
        f"wrote {out_path} (12 expanded states, with the bookkeeping agent)\n"
        "translation agrees at all 12 expanded states\n"
    )


def test_gen_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, out, _ = run_cli(
            capsys,
            "gen", "--seed", "11", "--states", "3", "--agents", "2", "--out", str(path),
        )
        assert code == 0
        assert "seed: 11" in out
    assert a.read_text() == b.read_text()
    code, _, _ = run_cli(capsys, "validate", "--model", str(a))
    assert code == 0


def test_gen_refuses_a_model_over_the_profile_cap(monkeypatch, capsys):
    monkeypatch.setenv("PERMITMC_PROFILE_CAP", "3")
    code, out, err = run_cli(capsys, "gen", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == "error: requested model needs 9 profiles, over the cap of 3\n"


def test_fixtures_listing_and_run(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    assert "fig1-wa" in out and "factory" in out
    code, out, _ = run_cli(capsys, "fixtures", "--run")
    assert code == 0
    assert "failures: 0" in out
    assert "[FAIL]" not in out


def test_fixtures_export(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "fixtures", "--export", str(tmp_path))
    assert code == 0
    assert (tmp_path / "fig1-wa.json").exists()
    assert (tmp_path / "factory.se-regulation.json").exists()


def test_fixtures_run_and_export_exclude_each_other(tmp_path, capsys):
    target = tmp_path / "out"
    code, out, err = run_cli(capsys, "fixtures", "--run", "--export", str(target))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("argument --export: not allowed with argument --run")
    assert not target.exists()


def test_fixtures_export_onto_existing_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep")
    code, out, err = run_cli(capsys, "fixtures", "--export", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert target.read_text() == "keep"


@pytest.mark.parametrize(
    "formula",
    [
        "!" * 400 + "p | " + "!" * 400 + "p",
        "!" * 10**5 + "p",
        "(" * 50_000 + "p" + ")" * 50_000,
    ],
    ids=["equal-halves", "negations", "parentheses"],
)
def test_deep_formulas_check_in_a_fresh_interpreter(fig1_path, formula):
    # A fresh process has the default recursion limit; each formula is
    # [[p]] = {u} in fig1.
    proc = subprocess.run(
        [sys.executable, "-m", "permitmc", "check", "--model", fig1_path, "--formula", formula],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "u\n", "")


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "permitmc", "fixtures"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "fig1-wa" in proc.stdout


def test_closed_stdout_exits_141_silently():
    # The model is megabytes long, so the writes after the first line meet
    # the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "permitmc", "gen", "--seed", "1", "--states", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"seed: 1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")
