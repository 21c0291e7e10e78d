"""Run one CLI scenario under the tracer.

    python3 perfbench/cli_launch.py SPANS_FILE <liedouble CLI arguments...>

Imports liedouble.cli (timed as the import cost), installs the same
wrappers as the flow workloads, calls liedouble.cli.main with the remaining
arguments and writes the spans to SPANS_FILE. The exit code is main's.
"""

import sys
import time

import tracer as tracerlib


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import liedouble.cli
    import_s = time.perf_counter() - t0
    tracer = tracerlib.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.scenario"):
            rc = liedouble.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.flush(spans_path, import_s=import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main())
