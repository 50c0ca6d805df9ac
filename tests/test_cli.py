import json
import subprocess
import sys

import pytest

from permitmc.cli import main
from permitmc.fixtures import load_fixture
from permitmc.model import model_to_dict


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
    [{"formula": 5, "by": "taut"}, {"formula": "p", "by": "ir4:1", "as": "a"}],
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


def test_witness_requires_model_or_search(capsys):
    assert run_cli(capsys, "witness", "--target", "WA")[0] == 2


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


@pytest.mark.parametrize(
    "extra, message",
    [
        ((), "--verify needs --formula"),
        (("--formula", "WA[a] WA[a] WA[a] p"), "modal depth 3 exceeds the configured bound 2"),
        (("--formula", "WA[a"), None),
    ],
    ids=["no-formula", "too-deep", "unparsable"],
)
def test_translate_usage_error_writes_nothing(fig1_path, tmp_path, capsys, extra, message):
    out_path = tmp_path / "atl.json"
    code, out, err = run_cli(
        capsys, "translate", "--model", fig1_path, "--out", str(out_path), "--verify", *extra
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and (message is None or err == f"error: {message}\n")
    assert not out_path.exists()


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
