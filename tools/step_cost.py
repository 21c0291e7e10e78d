"""Python calls and wall time per fiber-flow step, and wall time per
scenario run.

    python3 tools/step_cost.py [--tree TREE]

TREE is a checkout of this repository (default: the one holding this
script). The flows are set up by that tree's ``perfbench/worker.py`` with
the benchmark's hold-out seed ``SEED``, so they integrate the benchmark's
fiber data: the base fiber flow on ``sl2c-iwasawa`` and the loop fiber
flow at N = 8, 32 and 128 sites. For each flow the script integrates one
warm-up segment of ``STEPS`` steps, then

- one segment under ``cProfile``: Python calls per step is its
  ``total_calls`` over ``STEPS``;
- ``REPEATS`` more segments untimed by the profiler: ms/step is the
  median over them of the segment's wall time over ``STEPS``.

Then each config in the tree's ``configs/`` runs through the tree's
``liedouble.cli.run`` in this process, once as a warm-up and ``REPEATS``
more times: ms/run is the median of those, without interpreter start and
imports.

BLAS runs on one thread, as in the benchmark. Standard library plus the
tree's ``liedouble``.
"""

import argparse
import cProfile
import json
import os
import pstats
import statistics
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

LOOP_SITES = (8, 32, 128)
SEED = 1009
STEPS = 200
REPEATS = 7


def flows(worker):
    """(name, Hamiltonian, integrate) of each flow."""
    yield ("base", *worker.setup_base(SEED, STEPS))
    for n in LOOP_SITES:
        # the worker's loop set-up reads its site count from this constant
        worker.LOOP_SITES = n
        yield ("loop N=%d" % n, *worker.setup_loop(SEED, STEPS))


def measure(h, integrate):
    integrate(h)  # warm-up: caches, lazy imports
    prof = cProfile.Profile()
    prof.enable()
    integrate(h)
    prof.disable()
    calls = pstats.Stats(prof).total_calls / STEPS
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        integrate(h)
        times.append((time.perf_counter() - t0) / STEPS)
    return calls, 1e3 * statistics.median(times)


def run_times(tree, cli):
    """(config, ms/run) of each config of the tree."""
    folder = os.path.join(tree, "configs")
    with tempfile.TemporaryDirectory() as out:
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                experiment = json.load(fh)["experiment"]
            times = []
            for _ in range(REPEATS + 1):  # the first is the warm-up
                t0 = time.perf_counter()
                cli.run(experiment, path, output_dir=out, quiet=True)
                times.append(time.perf_counter() - t0)
            yield name[:-len(".json")], 1e3 * statistics.median(times[1:])


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser()
    ap.add_argument("--tree", default=here)
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import worker
    from liedouble import cli
    print("%-12s %12s %10s" % ("flow", "calls/step", "ms/step"))
    for name, h, integrate in flows(worker):
        calls, ms = measure(h, integrate)
        print("%-12s %12.1f %10.3f" % (name, calls, ms), flush=True)
    print("\n%-16s %10s" % ("config", "ms/run"))
    for name, ms in run_times(tree, cli):
        print("%-16s %10.1f" % (name, ms), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
