"""One workload process of the benchmark, started in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N --mode MODE [--out FILE]
        [--seconds S] [--steps K] [--spans FILE]

Modes:
  setup    import and set up, print "ready", write metadata to --out, exit
  measure  set up, print "ready", then integrate fixed-length segments of K
           steps until S seconds are used (at least one) and write the
           per-step times, drifts and failures to --out
  trace    as measure, but with the tracer installed around set-up and
           around every second segment, starting with the second; the
           spans of
           set-up and of each traced segment go to their own file in the
           directory --spans

For cli-scenarios only the setup mode exists: it imports liedouble.cli.
The orchestrator (run.py) times each process from its start to the
"ready" line, which is the workload's set-up time.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import tracer as tracerlib

ENERGY_BOUND = 1e-6   # the tier-1 long-horizon bound, and sl2_flow's tolerance
FIBER_BOUND = 1e-9    # the CLI's fiber-frozen tolerance
LOOP_SITES = 32
LOOP_LEVEL = 0.6


def _unit(dim, i):
    import numpy as np
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def setup_base(seed, steps):
    """sl2c-iwasawa, coboundary cocycle, skewed energy, seeded fiber point."""
    import numpy as np
    from liedouble import algebra, dynamics, group, phase

    a = algebra.get_algebra("sl2c-iwasawa")
    b1 = _unit(a.dim, 3)
    space = phase.PhaseSpace(a, group.GroupCocycle.coboundary(a, 0.9 * b1))
    e_op = dynamics.EnergyOperator.preset(a, "skewed")
    fiber = space.fiber(group.exp(a, 0.3 * b1), 0.7 * b1)
    p0 = space.random_fiber_point(fiber, np.random.default_rng(seed), 0.3)
    h = dynamics.hamiltonian_quadratic(space, e_op)
    cfg = dynamics.IntegratorConfig(0.005, steps)
    return h, lambda obs: dynamics.flow_fiber(space, obs, p0, fiber, cfg)


def _wave(base, lattice_alg, rng, amplitude=0.01, modes=2):
    # band-limited coefficients on the plus factor; each of the 2*(modes+1)
    # terms has coordinates of size ~amplitude/2
    from liedouble import loop
    coeffs = [tuple(base.project(0.5 * amplitude * rng.standard_normal(
        base.dim), "plus") for _ in range(2)) for _ in range(modes + 1)]
    return loop.sampled_loop(lattice_alg, coeffs)


def setup_loop(seed, steps):
    """Loop double of sl2c-iwasawa, N = 32, level-k cocycle, seeded wave."""
    import numpy as np
    from liedouble import algebra, dynamics, group, loop, phase

    base = algebra.get_algebra("sl2c-iwasawa")
    alg = loop.build_loop_double(base, LOOP_SITES)
    space = phase.PhaseSpace(alg, loop.loop_group_cocycle(alg, LOOP_LEVEL))
    e_op = dynamics.EnergyOperator.preset(alg, "isotropic")
    fiber = space.fiber(group.identity(alg), loop.constant_loop(
        alg, 0.02 / LOOP_SITES * _unit(base.dim, 3)))
    rng = np.random.default_rng(seed)
    g_wave = _wave(base, alg, rng)
    # covectors carry the 1/N normalization of the lattice pairing, as the
    # CLI's constant eta_minus does
    eta_wave = _wave(base, alg, rng) / LOOP_SITES
    p0 = space.fiber_point(fiber, group.exp(alg, g_wave), eta_wave)
    h = dynamics.hamiltonian_quadratic(space, e_op)
    cfg = dynamics.IntegratorConfig(alg.lattice.ds / (4 * LOOP_LEVEL), steps)
    return h, lambda obs: loop.field_flow(space, obs, p0, fiber, cfg,
                                          LOOP_LEVEL)


FLOWS = {"base-fiber-flow": setup_base, "loop-fiber-flow": setup_loop}


def run_segment(h, integrate):
    """Integrate one segment, timestamping each energy evaluation.

    The integrator evaluates the Observable once at the initial point and
    once after every step, so successive timestamps bound one whole step.
    """
    from liedouble.phase import Observable
    import numpy as np

    stamps = []

    def stamped(p):
        stamps.append(time.perf_counter())
        return h.value(p)

    obs = Observable(stamped, diff=h.analytic_differential, name=h.name)
    t0 = time.perf_counter()
    try:
        traj = integrate(obs)
    except Exception as exc:  # a failed step is a measured outcome
        return {"wall_s": time.perf_counter() - t0,
                "step_s": list(np.diff(stamps)), "steps": max(0, len(stamps) - 1),
                "failed_steps": 1, "error": "%s: %s" % (type(exc).__name__, exc)}
    wall = time.perf_counter() - t0
    de = np.abs(traj.energies - traj.energies[0])
    df = np.maximum(traj.extras["drift_gminus"], traj.extras["drift_etaminus"])
    # NaN compares false, so "not below the bound" also catches non-finite
    bad = ~((de < ENERGY_BOUND) & (df <= FIBER_BOUND))
    last = traj.points[-1]
    digest = hashlib.sha256(np.ascontiguousarray(last.g.matrix).tobytes()
                            + np.ascontiguousarray(last.eta).tobytes())
    return {"wall_s": wall, "step_s": list(np.diff(stamps)),
            "steps": len(traj.energies) - 1,
            "failed_steps": int(bad[1:].sum()),
            "energy_drift": float(de.max()),
            "fiber_drift": float(df.max()),
            "final_sha256": digest.hexdigest()}


def metadata():
    import numpy as np
    import scipy
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=1)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    tracer = tracerlib.Tracer()
    if args.workload == "cli-scenarios":
        if args.mode != "setup":
            ap.error("cli-scenarios has only the setup mode here")
        import liedouble.cli  # noqa: F401  (the set-up of a CLI process)
    else:
        import liedouble.algebra, liedouble.dynamics, liedouble.group  # noqa
        import liedouble.loop, liedouble.phase  # noqa: F401
        if args.mode == "trace":
            tracer.install()
            with tracer.span("bench.setup"):
                h, integrate = FLOWS[args.workload](args.seed, args.steps)
            tracer.uninstall()
            tracer.flush(os.path.join(args.spans, "setup.json"))
        else:
            h, integrate = FLOWS[args.workload](args.seed, args.steps)
    print("ready", flush=True)

    import liedouble
    out = {"module": liedouble.__file__, "meta": metadata()}
    if args.mode != "setup":
        segments = []
        start = time.perf_counter()
        while True:
            # traced and untraced segments alternate, so the tracing
            # overhead compares segments run close together in time
            traced = args.mode == "trace" and len(segments) % 2 == 1
            if traced:
                tracer.install()
                with tracer.span("bench.segment"):
                    seg = run_segment(h, integrate)
                tracer.uninstall()
                tracer.flush(os.path.join(args.spans, "segment-%04d.json"
                                          % len(segments)))
            else:
                seg = run_segment(h, integrate)
            seg["traced"] = traced
            segments.append(seg)
            if "error" in seg:
                break  # a failure ends the run; it is never retried
            used = time.perf_counter() - start
            enough = args.mode == "measure" or len(segments) >= 2
            if enough and used + seg["wall_s"] > args.seconds:
                break
        out["segments"] = segments
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
