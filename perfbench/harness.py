"""Measurement arithmetic shared by every workload: percentiles, input
digests, and an in-memory span recorder with self-time accounting.

Nothing here imports permitmc; the recorder wraps whatever callables the
workloads hand it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import time
from array import array
from typing import Any, Callable, Iterable, Sequence

# --- percentiles -----------------------------------------------------------------

# A percentile is reported only when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10


def min_samples(q: float, beyond: int = SAMPLES_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples above the
    q-quantile: 100 for the 90th percentile, 200 for the 95th."""
    return math.ceil(round(beyond / (1.0 - q), 9))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method of
    ``statistics.quantiles``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --- operations ------------------------------------------------------------------

FAILED = object()  # result of an operation that raised


class OpLog:
    """Times operations one after another (a closed loop with one client) and
    counts failures. With a tracer, each operation is a ``harness.op`` span
    whose operation id is its sequence number. With a speed reference, the
    reference gets its turn before each operation, outside the timed part."""

    def __init__(self, tracer: "Tracer | None" = None, reference: "SpeedReference | None" = None):
        self.latencies = array("d")
        self.starts = array("d")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = tracer
        self.reference = reference
        self.by_kind: dict[str, float] = {}

    def call(self, kind: str, fn: Callable, *args: Any) -> Any:
        """Run one operation; returns its result, or FAILED if it raised."""
        if self.reference is not None:
            self.reference.tick()
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.current_op = self.attempted
            span = tracer.begin("harness.op")
        t0 = time.perf_counter()
        self.starts.append(t0)
        try:
            result = fn(*args)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            result = FAILED
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(span)
        self.latencies.append(elapsed)
        self.by_kind[kind] = self.by_kind.get(kind, 0.0) + elapsed
        return result

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


# --- machine speed ---------------------------------------------------------------

# Reported times are scaled to a machine on which one timed reference pass
# takes this long; in a measuring process on a 2-vCPU virtual machine it
# takes 5-9 ms, so scaled times stay close to measured ones.
REFERENCE_MS = 7.5
REFERENCE_EVERY_S = 0.4
REFERENCE_NEAREST = 2  # passes on each side of an operation that set its scale
REFERENCE_SEED = 20240417


class SpeedReference:
    """A fixed pure-Python job, run between operations, whose time follows
    how fast a shared machine runs the program at that moment.

    On a shared virtual machine the same dict- and set-heavy Python code runs
    up to a third faster or slower for tens of seconds at a time, because
    other tenants load the caches and memory; a simple arithmetic loop barely
    sees it. The reference does what the checker does, membership and subset
    tests of frozensets of state names over a few megabytes of tables, but
    imports nothing from permitmc, reads data built from a fixed seed and
    allocates nothing per row, so a change to the program cannot change its
    time. Each turn runs the pass twice with the garbage collector off: the
    first brings the tables into the caches, the second is timed, so the
    time follows the machine and not how much of the cache the program under
    test had just used.
    """

    def __init__(self, every: float = REFERENCE_EVERY_S, clock: Callable[[], float] = time.perf_counter):
        rng = random.Random(REFERENCE_SEED)
        names = [f"s{i}" for i in range(4000)]
        sets = [frozenset(rng.sample(names, 20)) for _ in range(2000)]
        # (successor set, permitted, row index) rows, three per state, as in a
        # mechanism table. The stored index saves creating one per row.
        self._rows = [(sets[rng.randrange(len(sets))], rng.random() < 0.5, j) for j in range(3 * len(names))]
        self._inside = sets[0] | sets[1] | sets[2]
        self._admits = [False] * len(self._rows)
        self._ensures = [False] * len(self._rows)
        self.every = every
        self.clock = clock
        self.at = array("d")  # start of each timed pass
        self.took = array("d")  # its duration in seconds
        self.spent = 0.0  # seconds taken by every turn, warm-up included
        self._due = -math.inf

    def _pass(self) -> int:
        # Allocates nothing per row, so its time does not depend on the state
        # of the heap the program under test left behind.
        inside, admits, ensures = self._inside, self._admits, self._ensures
        for t, p, j in self._rows:
            admits[j] = p and not t.isdisjoint(inside)
            ensures[j] = p or not t <= inside
        return admits.count(True) + ensures.count(True)

    def tick(self) -> None:
        """Take a turn if ``every`` seconds have passed since the last one."""
        start = self.clock()
        if start < self._due:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._pass()
            t = self.clock()
            self._pass()
            end = self.clock()
        finally:
            if enabled:
                gc.enable()
        self.at.append(t)
        self.took.append(end - t)
        self.spent += end - start
        self._due = end + self.every

    def scale(self, t: float) -> float:
        """REFERENCE_MS over the median time of the passes nearest to ``t``:
        the factor that turns a time measured at ``t`` into one at reference
        speed."""
        if not self.took:
            raise ValueError("no reference pass was timed")
        i = bisect.bisect(self.at, t)
        near = self.took[max(0, i - REFERENCE_NEAREST) : i + REFERENCE_NEAREST]
        return REFERENCE_MS / 1000.0 / statistics.median(near)

    def mean_scale(self, since: int) -> float:
        """REFERENCE_MS over the mean time of the passes from index ``since`` on
        (the last pass when there is none)."""
        took = self.took[since:] or self.took[-1:]
        return REFERENCE_MS / 1000.0 / statistics.fmean(took)


# --- digests ---------------------------------------------------------------------


class Digest:
    """SHA-256 over labelled byte strings, each length-prefixed so that
    moving bytes between items changes the digest."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.items = 0

    def add(self, label: str, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        for part in (label.encode("utf-8"), data):
            self._h.update(len(part).to_bytes(8, "little"))
            self._h.update(part)
        self.items += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# --- resources -------------------------------------------------------------------


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB, of this process or of the largest
    child it has waited for (Linux reports ru_maxrss in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- spans -----------------------------------------------------------------------


class Tracer:
    """Records spans in flat arrays: name, start, end, parent span, operation
    id, and whether a span of the same name was already open (recursion).

    Spans are appended when they begin, so a parent always precedes its
    children. Nothing is written until ``write`` is called.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")
        self._stack: list[int] = []
        self._open: list[int] = []  # open span count per name id
        self.current_op = -1
        self.counters: dict[str, float] = {}

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def begin(self, name: str) -> int:
        nid = self._intern(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.nested.append(1 if self._open[nid] else 0)
        self._open[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(self.clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError("spans finished out of order")
        self._open[self.name_id[i]] -= 1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, total self time (duration minus the
        time direct children cover) and covered time (durations of spans with
        no open ancestor of the same name, so recursion is not counted twice)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"count": 0, "self_s": 0.0, "covered_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            entry["count"] += 1
            entry["self_s"] += duration - child[i]
            if not self.nested[i]:
                entry["covered_s"] += duration
        return out

    def write(self, path: str, limit: int | None = None) -> None:
        """One JSON line per span: name, start, end, parent, op; the first
        ``limit`` spans when a limit is given."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start) if limit is None else min(limit, len(self.start))):
                fh.write(
                    json.dumps(
                        [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
                    )
                )
                fh.write("\n")


def merge_summaries(into: dict[str, dict[str, float]], other: dict[str, dict[str, float]]) -> None:
    for name, entry in other.items():
        target = into.setdefault(name, {"count": 0, "self_s": 0.0, "covered_s": 0.0})
        for key, value in entry.items():
            target[key] += value


def self_ms(summary: dict[str, dict[str, float]], *names: str) -> float:
    return 1000.0 * sum(summary.get(n, {}).get("self_s", 0.0) for n in names)


def covered_ms(summary: dict[str, dict[str, float]], *names: str) -> float:
    return 1000.0 * sum(summary.get(n, {}).get("covered_s", 0.0) for n in names)


# --- instrumentation -------------------------------------------------------------


def traced(
    tracer: Tracer,
    func: Callable,
    name: str | Callable[..., str],
    after: Callable[[tuple, dict, Any], None] | None = None,
) -> Callable:
    """Wrap ``func`` so each call is one span. ``name`` may be a function of
    the call's arguments; ``after`` sees the arguments and the result once the
    span has closed, so counting costs no span time."""
    begin, finish = tracer.begin, tracer.finish
    fixed = name if isinstance(name, str) else None

    def wrapper(*args, **kwargs):
        i = begin(fixed if fixed is not None else name(*args, **kwargs))
        try:
            result = func(*args, **kwargs)
        finally:
            finish(i)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


class Patches:
    """Rebinds callables at every module binding that refers to them and
    restores the originals on ``remove``."""

    def __init__(self) -> None:
        self._applied: list[tuple[object, str, object]] = []

    def everywhere(self, modules: Iterable[object], original: object, replacement: object) -> int:
        hits = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    hits += 1
        return hits

    def set(self, owner: object, attr: str, replacement: object) -> None:
        self._applied.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._applied:
            owner, attr, original = self._applied.pop()
            setattr(owner, attr, original)
