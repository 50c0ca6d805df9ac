"""cli: sequential ``python -m permitmc`` calls over the fixture models.

The fixture models (fig1-fig5 and the four factory variants) are read from
the package's data files and written out as plain model JSON. One round is a
fixed list of calls in a seeded order; one operation is one call. Interpreter
start-up and ``import permitmc.cli`` dominate each call and the model and
checker do little work, so start-up and lazy-import changes show only here.

Golden outputs come from the fixture data files, not from the code under
test: ``check`` must print exactly the expected states, and every call must
exit 0 (each fixture model is valid, each builtin derivation is accepted,
each axiom instance is valid, and so on).
"""

from __future__ import annotations

import glob
import json
import os
import random
import subprocess
import sys

from harness import FAILED, Digest, OpLog

DEFAULT_CLOSURE = {"WA", "WE", "SE", "SA"}
CALLS_PER_BLOCK = 10
SMOKE_CALLS = 5


class CliCalls:
    name = "cli"

    def __init__(self, ctx):
        self.ctx = ctx
        self.calls: list[tuple[list[str], str | None]] = []  # argv, expected stdout
        self.env = dict(os.environ, PYTHONPATH=ctx.src)
        self.traces: list[dict] = []
        self.mismatches = 0
        self.cursor = 0

    def setup(self) -> Digest:
        ctx = self.ctx
        rng = random.Random(ctx.seed * 2654435761 + 5)
        out = os.path.join(ctx.out_dir, self.name)
        os.makedirs(out, exist_ok=True)
        digest = Digest()
        calls: list[tuple[list[str], str | None]] = []
        data = sorted(glob.glob(os.path.join(ctx.src, "permitmc", "data", "*.json")))
        for path in data:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            models = doc["models"]
            for variant, model in models.items():
                name = doc["id"] if len(models) == 1 else f"{doc['id']}.{variant}"
                model_path = os.path.join(out, f"{name}.json")
                text = json.dumps(model, indent=2) + "\n"
                with open(model_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                digest.add(f"model:{name}", text)
                goldens = [e for e in doc["expectations"] if e["variant"] == variant]
                modal = None
                for e in goldens:
                    if e["kind"] == "truth_set":
                        calls.append(
                            (["check", "--model", model_path, "--formula", e["formula"]],
                             " ".join(sorted(e["states"])) + "\n")
                        )
                        if "[" in e["formula"] and modal is None:
                            modal = e["formula"]
                    elif e["kind"] == "witness" and {e["target"], *e["closed"]} == DEFAULT_CLOSURE:
                        calls.append(
                            (["witness", "--model", model_path, "--target", e["target"], "--prop", e["prop"]], None)
                        )
                calls.append((["validate", "--model", model_path], None))
                calls.append(
                    (["axioms", "--model", model_path, "--count", "1", "--seed", str(rng.getrandbits(16))], None)
                )
                if modal is not None:
                    calls.append(
                        (["translate", "--model", model_path, "--out", os.path.join(out, "game.json"),
                          "--verify", "--formula", modal], None)
                    )
        calls += [
            (["prove", "--builtin", "we-monotonicity"], None),
            (["prove", "--builtin", "se-antimonotonicity"], None),
            (["fixtures", "--run"], None),
        ]
        rng.shuffle(calls)
        if ctx.smoke:
            calls = calls[:SMOKE_CALLS]
        for argv, _ in calls:
            # Paths relative to the output directory keep the digest independent of its location.
            digest.add("call", json.dumps([os.path.relpath(a, ctx.out_dir) if a.startswith(out) else a for a in argv]))
        self.calls = calls
        self.cursor = round(ctx.offset * len(calls)) % len(calls)
        return digest

    def _run(self, prefix: list[str], argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *prefix, *argv], env=self.env, cwd=self.ctx.root,
            capture_output=True, text=True, timeout=60,
        )

    def check(self, log: OpLog, argv: list[str], expected: str | None, got) -> bool:
        if got is FAILED:
            return False
        if got.returncode != 0:
            log.fail(f"{' '.join(argv[:1])}: exit {got.returncode}: {got.stderr.strip()[-200:]}")
            return False
        if expected is not None and got.stdout != expected:
            log.fail(f"check {argv[4]!r}: printed {got.stdout!r}, expected {expected!r}")
            return False
        return True

    def run_block(self, log: OpLog, pm) -> None:
        """The next CALLS_PER_BLOCK calls, cycling through the seeded list."""
        for _ in range(CALLS_PER_BLOCK):
            self.run_call(log, self.cursor % len(self.calls))
            self.cursor += 1

    def run_call(self, log: OpLog, index: int, traced: bool = False) -> None:
        """One call, plain or through the tracing shim, whose span summary is kept."""
        argv, expected = self.calls[index]
        if not traced:
            got = log.call(argv[0], self._run, ["-m", "permitmc"], argv)
        else:
            trace_path = os.path.join(self.ctx.out_dir, self.name, "shim-trace.json")
            shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shim.py")
            got = log.call(argv[0], self._run, [shim, trace_path], argv)
            if got is not FAILED and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    self.traces.append(json.load(fh))
                os.remove(trace_path)
        if not self.check(log, argv, expected, got):
            self.mismatches += 1

    def verdicts(self) -> str:
        """Each call is checked against its golden output as it runs, so
        there is no verdict table to compare between processes."""
        return ""

    def gate(self, log: OpLog, pm, counters: dict) -> None:
        counters["cli.exit_mismatches"] = counters.get("cli.exit_mismatches", 0) + self.mismatches
