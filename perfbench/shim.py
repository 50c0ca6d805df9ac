"""Traced stand-in for ``python -m permitmc``.

    python shim.py TRACE_OUT ARGS...   run ``permitmc.cli.main(ARGS)`` traced
    python shim.py --import-only       time ``import permitmc.cli`` and exit

Times ``import permitmc.cli``, rebinds the layer entry points (in the
``permitmc.cli`` namespace and wherever else they are bound), then calls
``permitmc.cli.main``. Its stdout and exit code are the CLI's own; the span
summary is written to TRACE_OUT as JSON when main returns.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import permitmc.cli

    import_s = time.perf_counter() - t0
    if sys.argv[1] == "--import-only":
        print(json.dumps({"import_s": import_s}))
        return 0

    from harness import Tracer, traced
    from layers import LayerTracing

    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracing = LayerTracing(tracer)
    tracing.install()
    # The CLI reads model files with json.load; that decode is model loading.
    json.load = traced(tracer, json.load, "model.json")
    code = traced(tracer, permitmc.cli.main, "cli.main")(argv)
    tracing.remove()
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "summary": tracer.summarize(), "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
