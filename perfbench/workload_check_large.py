"""check-large: global model checking of formula batches on large models.

Each round decodes every model from its JSON text (json.loads +
model_from_dict), validates it, builds one ModelChecker and runs the model's
fixed batch of formula texts: parse, truth set, sorted members. One operation
is one formula verdict; the round's wall time also covers decode and
validation, which a CLI user pays on every run.

The model and checker layers do most of the work here. The three shapes
differ in how many mechanism entries each state has, which is the input
property a per-model compiled classifier depends on.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import oracle
from harness import FAILED, Digest, OpLog

# name, random formulas in the batch, generator parameters (num_props=3 and
# permitted_density=0.6 for all). A random formula costs least on the sparse
# model and most on the many-state one, and chains cost more than any random
# formula. With these counts and two chains per model (a fifth of the
# batch) the median falls in the middle of the dense model's random formulas
# and the 90th percentile among the dense chains, not at the edge between
# two populations. A round takes about three seconds, so each of a run's
# processes measures one or two whole rounds.
SHAPES = (
    ("dense", 10, {"num_states": 300, "num_agents": 4, "max_actions": 5, "branching": 2}),
    ("many-state", 4, {"num_states": 2000, "num_agents": 3, "max_actions": 3, "branching": 2}),
    ("sparse", 10, {"num_states": 500, "num_agents": 2, "max_actions": 3, "branching": 3}),
)
SMOKE_STATES = {"dense": 12, "many-state": 40, "sparse": 20}

RANDOM_DEPTH = 6
# Random formulas keep 3..6 distinct modal subformulas, which bounds their
# cost from below and above.
MODAL_BAND = (3, 6)
# The models and the random formulas of each shape come from these fixed
# seeds, not from the run seed: formulas of one modal band still differ
# sevenfold in cost, so with ten per model their median moved by a fifth
# from seed to seed, and models of one shape drawn from different seeds
# differ by up to a tenth in entries and cost, which moved the median by
# another fifth. The run seed varies the order of each batch, which decides
# what the checker's memo already holds, and the states the oracle samples.
MODEL_SEED = 7919
FORMULA_SEED = 104659
# The deepest chain today's parser round-trips; 192 layers hit the recursion limit.
CHAIN_LAYERS = 128
CHAIN_STARTS = (0, 2)  # first modality WA or SE; each chain cycles all four

ORACLE_STATES = 8
# check_state_naive expands every entry at every modal level; above this many
# expansions per state the memoized transcription in oracle.py is used.
NAIVE_BUDGET = 50_000


def modal_chain(layers: int, start: int, agents, props):
    """complexity_smoke.py's shape: alternate agents, cycle all four modalities."""
    from permitmc.formula import Modal, Modality, Or, Prop

    kinds = (Modality.WA, Modality.WE, Modality.SE, Modality.SA)
    f = Prop(props[0])
    for i in range(layers):
        f = Modal(kinds[(start + i) % 4], agents[i % 2], Or(Prop(props[i % len(props)]), f))
    return f


def distinct_modal(f) -> int:
    from permitmc.formula import Modal, subformulas

    return len({g for g in subformulas(f) if isinstance(g, Modal)})


class CheckLarge:
    name = "check-large"

    def __init__(self, ctx):
        self.ctx = ctx
        self.models: list[tuple[str, str]] = []  # (shape, JSON text)
        self.batches: list[list] = []  # per model: formula objects
        self.texts: list[list[str]] = []
        self.expected: dict[tuple[int, int], list[str]] = {}
        self.rounds = 0

    # --- inputs ---------------------------------------------------------------

    def setup(self) -> Digest:
        from permitmc.formula import format_formula
        from permitmc.generate import GenParams, random_formula, random_model
        from permitmc.model import model_to_dict

        ctx = self.ctx
        rng = random.Random(ctx.seed * 7919 + 17)
        chain_layers = 8 if ctx.smoke else CHAIN_LAYERS
        digest = Digest()
        out = os.path.join(ctx.out_dir, self.name)
        os.makedirs(out, exist_ok=True)
        for k, (shape, per_model, params) in enumerate(SHAPES):
            params = dict(params)
            if ctx.smoke:
                params["num_states"] = SMOKE_STATES[shape]
            gen = GenParams(seed=MODEL_SEED + k, num_props=3, permitted_density=0.6, **params)
            m = random_model(gen)
            text = json.dumps(model_to_dict(m))
            agents, props = list(m.agents), sorted(m.valuation)
            formula_rng = random.Random(FORMULA_SEED + k)
            batch = []
            while len(batch) < per_model:
                f = random_formula(formula_rng.getrandbits(32), RANDOM_DEPTH, agents, props)
                if MODAL_BAND[0] <= distinct_modal(f) <= MODAL_BAND[1] and f not in batch:
                    batch.append(f)
            batch += [modal_chain(chain_layers, start, agents, props) for start in CHAIN_STARTS]
            rng.shuffle(batch)
            texts = [format_formula(f) for f in batch]
            with open(os.path.join(out, f"{shape}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(os.path.join(out, f"{shape}.formulas"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(texts) + "\n")
            digest.add(f"model:{shape}", text)
            for t in texts:
                digest.add(f"formula:{shape}", t)
            self.models.append((shape, text))
            self.batches.append(batch)
            self.texts.append(texts)
        return digest

    # --- timed work -----------------------------------------------------------

    def run_block(self, log: OpLog, pm) -> None:
        """One round: every input once."""
        tracer = log.tracer
        for mi, (shape, text) in enumerate(self.models):
            if tracer is not None:
                span = tracer.begin("model.json")
                doc = json.loads(text)
                tracer.finish(span)
            else:
                doc = json.loads(text)
            m = pm.model.model_from_dict(doc)
            violations = pm.model.validate_model(m)
            texts = self.texts[mi]
            if violations:
                log.attempted += len(texts)
                log.fail(f"{shape}: {len(violations)} violations: {violations[0]}", len(texts))
                continue
            checker = pm.checker.ModelChecker(m)
            parse = pm.formula.parse
            verdict = lambda t: checker.truth_set(parse(t)).sorted_members()  # noqa: E731
            for fi, t in enumerate(texts):
                got = log.call("formula", verdict, t)
                if got is FAILED:
                    continue
                want = self.expected.setdefault((mi, fi), got)
                if got != want:
                    log.fail(f"{shape} formula {fi}: verdict changed between rounds")
        self.rounds += 1

    # --- correctness ----------------------------------------------------------

    def verdicts(self) -> str:
        """Digest of every verdict, so processes of one run can be compared."""
        digest = Digest()
        for (mi, fi), members in sorted(self.expected.items()):
            digest.add(f"verdict:{mi}:{fi}", json.dumps(members))
        return digest.hexdigest()

    def gate(self, log: OpLog, pm, counters: dict) -> None:
        """Compare each verdict with an oracle at a seeded sample of states:
        check_state_naive where its unshared expansion is affordable, the
        memoized transcription of the semantics otherwise."""
        from permitmc.checker import check_state_naive
        from permitmc.formula import modal_depth

        rng = random.Random(self.ctx.seed * 104729 + 3)
        mismatches = 0
        for mi, (shape, text) in enumerate(self.models):
            doc = json.loads(text)
            raw = oracle.RawModel(doc)
            m = pm.model.model_from_dict(doc)
            sample = rng.sample(raw.states, min(ORACLE_STATES, len(raw.states)))
            for fi, f in enumerate(self.batches[mi]):
                got = self.expected.get((mi, fi))
                if got is None:
                    continue  # the operation raised every time; already counted
                members = set(got)
                if raw.max_entries ** modal_depth(f) <= NAIVE_BUDGET:
                    want = {s for s in sample if check_state_naive(m, s, f)}
                else:
                    want = set(sample) & oracle.truth_set(raw, f)
                if want != members & set(sample):
                    mismatches += 1
                    log.fail(f"{shape} formula {fi}: truth set disagrees with the oracle", self.rounds)
        counters["checker.oracle_mismatches"] = counters.get("checker.oracle_mismatches", 0) + mismatches

    # --- traced-run extras ----------------------------------------------------

    def doubling(self, pm, counters: dict, log: OpLog) -> float:
        """Truth-set time of the sparse batch on replicate_model(sparse, 2)
        over that on sparse; about 2 under a linear bound. Medians of three
        alternating runs; parsing is not timed."""
        from permitmc.generate import replicate_model

        mi = [shape for shape, _ in self.models].index("sparse")
        single = pm.model.model_from_dict(json.loads(self.models[mi][1]))
        double = replicate_model(single, 2)
        # Parsed once: parse cost does not grow with the model and would pull the ratio toward 1.
        formulas = [pm.formula.parse(t) for t in self.texts[mi]]

        def batch(m):
            checker = pm.checker.ModelChecker(m)
            t0 = time.perf_counter()
            results = [checker.truth_set(f).members for f in formulas]
            return time.perf_counter() - t0, results

        times: dict[int, list[float]] = {1: [], 2: []}
        results = {}
        for _ in range(3):
            for copies, m in ((1, single), (2, double)):
                elapsed, results[copies] = batch(m)
                times[copies].append(elapsed)
        for fi, (one, two) in enumerate(zip(results[1], results[2])):
            if two != {f"{s}~{i}" for s in one for i in range(2)}:
                counters["checker.oracle_mismatches"] = counters.get("checker.oracle_mismatches", 0) + 1
                log.fail(f"sparse formula {fi}: doubled model disagrees with two copies")
        return statistics.median(times[2]) / statistics.median(times[1])
