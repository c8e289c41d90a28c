"""Stand-in for the ``tprod`` console script, run from this checkout.

    python3 perfbench/launch.py [--trace-out PATH] -- <tprod arguments>

It imports ``tprod.cli`` from the checkout's ``src`` and calls
``cli_main``, as the installed entry point ``tprod.cli:main`` would.  With
``--trace-out`` it wraps tprod's public functions (see ``tracer.py``),
records the import time as the ``cli.import`` span and writes the span
statistics to PATH as JSON.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import tprod.cli
    import_s = time.perf_counter() - t0
    if trace_out is None:
        return tprod.cli.cli_main(argv)

    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = tprod.cli.cli_main(argv)
    tracer.stats["cli.import"] = {"calls": 1, "s": import_s, "child_s": 0.0}
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
