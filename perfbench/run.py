"""Benchmark of liedouble: fiber flows on the base and loop doubles, and the
CLI scenario suite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. Every workload runs in fresh interpreters with one BLAS
thread. The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. Lines
before it give run metadata and, when traced, the per-layer time shares.
See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer as tracerlib
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"   # scratch space inside the checkout

SEGMENT_STEPS = {"base-fiber-flow": 200, "loop-fiber-flow": 100}
SHORT_SEGMENT_STEPS = 24
SETUP_PROBES = 3            # fresh set-up processes before and again after
MIN_PASSES = 2              # the CSV identity check needs a second pass
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10            # samples the tail percentile leaves above it

# Checks that fail at this commit for some seeds. A scenario whose only
# failing checks are listed here still counts as failed, but does not mark
# the run incorrect. configs/loop_flow.json exceeds its 1e-6 energy-drift
# tolerance on 16 of the seeds 0-39 (seed 4: 2.25e-5), while its shipped
# seed 23 passes at ratio 0.19.
KNOWN_FAILURES = {("loop_flow", "loop/energy_drift")}

ENERGY_CHECKS = ("flow/energy_drift", "loop/energy_drift")
FIBER_CHECKS = ("flow/fiber_gminus_frozen", "flow/fiber_etaminus_frozen",
                "loop/fiber_frozen")

SPAN_METRICS = (
    "algebra.bracket.calls", "algebra.bracket.self_ms",
    "algebra.ad.calls", "algebra.ad.self_ms",
    "algebra.validate_manin.self_ms",
    "algebra.is_character.calls", "algebra.is_character.self_ms",
    "group.exp.calls", "group.exp.self_ms",
    "group.ad_matrix.calls", "group.ad_matrix.builds",
    "group.ad_matrix.self_ms",
    "group.factors.calls", "group.factors.builds", "group.factors.self_ms",
    "group.cocycle_value.calls", "group.cocycle_value.self_ms",
    "group.cocycle_differential_inv.calls",
    "group.cocycle_differential_inv.self_ms",
    "phase.dressed_projector.calls", "phase.dressed_projector.self_ms",
    "phase.differential.calls", "phase.differential.self_ms",
    "phase.fiber.self_ms", "phase.fiber.total_ms",
    "phase.dirac_bracket.calls", "phase.dirac_bracket.self_ms",
    "phase.dirac_oracle.calls", "phase.dirac_oracle.self_ms",
    "dynamics.dirac_field.calls", "dynamics.dirac_field.self_ms",
    "dynamics.energy_at.calls", "dynamics.energy_at.self_ms",
    "dynamics.hamiltonian.calls", "dynamics.hamiltonian.self_ms",
    "dynamics.flow.self_ms",
    "loop.build_loop_double.self_ms", "loop.convergence_study.self_ms",
    "sigma.self_ms", "cli.run.self_ms",
    "numpy.linalg.solve.calls", "numpy.linalg.solve.flops",
    "numpy.linalg.solve.self_ms",
    "numpy.linalg.inv.calls", "numpy.linalg.inv.self_ms",
    "numpy.linalg.qr.calls", "numpy.linalg.qr.self_ms",
    "scipy.linalg.expm.calls", "scipy.linalg.expm.matrices",
    "scipy.linalg.expm.self_ms",
)
FIELD_UNITS = {"calls": "count", "builds": "count", "matrices": "count",
               "flops": "flop", "self_ms": "ms", "total_ms": "ms"}
PAYLOAD_FIELDS = ("builds", "flops", "matrices")


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


# --- processes ---------------------------------------------------------------

def child_env(work):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work)
    return env


def run_process(cmd, env, work, wait_ready=False):
    """Run cmd to completion; returns (exit code, seconds, ready seconds,
    peak RSS in MB). A process still running after CHILD_TIMEOUT_S is
    killed and reported with a negative exit code."""
    with tempfile.TemporaryFile(dir=work) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stderr=err,
            stdout=subprocess.PIPE if wait_ready else subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        ready_s = None
        try:
            if wait_ready:
                if proc.stdout.readline().strip() == b"ready":
                    ready_s = time.perf_counter() - t0
                proc.stdout.read()
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 1):
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()
            print("# %s exited %d: %s" % (" ".join(cmd[1:3]), proc.returncode,
                                           tail[-1] if tail else ""),
                  file=sys.stderr)
    return proc.returncode, elapsed, ready_s, usage.ru_maxrss / 1024.0


def run_worker(workload, seed, mode, env, work, **opts):
    out = work / ("%s-%s-%d.json" % (workload, mode, time.monotonic_ns()))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed",
           str(seed), "--mode", mode, "--out", str(out)]
    for key, val in opts.items():
        cmd += ["--" + key, str(val)]
    rc, _, ready_s, rss = run_process(cmd, env, work, wait_ready=True)
    if rc != 0 or ready_s is None:
        raise BenchError("%s worker (%s) exited %d" % (workload, mode, rc))
    with open(out) as fh:
        result = json.load(fh)
    if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError("liedouble imported from %s, not from this checkout"
                         % result["module"])
    return result, ready_s, rss


def setup_times(workload, seed, env, work, probes):
    """Set-up seconds of `probes` fresh processes, plus their metadata."""
    times, meta = [], None
    for _ in range(probes):
        result, ready_s, _ = run_worker(workload, seed, "setup", env, work)
        times.append(ready_s)
        meta = meta or result["meta"]
    return times, meta


# --- statistics ----------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(unit_size):
    """The highest quantile with TAIL_BEYOND samples of a unit above it."""
    return 1.0 - TAIL_BEYOND / unit_size


# --- correctness gates -----------------------------------------------------------

def gate_segments(segments):
    """(attempted steps, failed steps, correct) of flow segments.

    A step fails when it raises, or when the energy drift or fiber drift
    after it is non-finite or above its bound. Every segment integrates the
    same initial point, so all must end in bit-identical states.
    """
    attempted = sum(s["steps"] + ("error" in s) for s in segments)
    failed = sum(s["failed_steps"] for s in segments)
    digests = {s.get("final_sha256") for s in segments}
    return attempted, failed, failed == 0 and len(digests) == 1


def gate_scenario(stem, rc, report, csv_identical):
    """(failed, known) for one scenario process.

    It fails on an exit code other than 0, a failing or non-finite check,
    or CSV artifacts that differ from the first pass. The failure is known
    when its only cause is failing checks listed in KNOWN_FAILURES.
    """
    if rc not in (0, 1) or report is None or not csv_identical:
        return True, False
    bad = [c["name"] for c in report["checks"]
           if not (c["residual"] < c["tolerance"])]
    if (rc == 1) != bool(bad) or report["passed"] == bool(bad):
        return True, False
    if not bad:
        return False, False
    return True, all((stem, name) in KNOWN_FAILURES for name in bad)


# --- workloads -------------------------------------------------------------------

def flow_workload(name, seed, seconds, trace, env, work, short):
    steps = SHORT_SEGMENT_STEPS if short else SEGMENT_STEPS[name]
    probes = 1 if short or trace else SETUP_PROBES
    setups, meta = setup_times(name, seed, env, work, probes)
    spans_dir = work / "spans"
    opts = {"seconds": seconds, "steps": steps}
    if trace:
        spans_dir.mkdir()
        opts["spans"] = spans_dir
    result, ready_s, rss = run_worker(name, seed,
                                      "trace" if trace else "measure",
                                      env, work, **opts)
    setups.append(ready_s)
    setups += setup_times(name, seed, env, work, probes)[0]
    segments = result["segments"]
    attempted, failed, correct = gate_segments(segments)
    finished = [s for s in segments if "error" not in s]
    if not finished:
        raise BenchError("no segment finished: %s" % segments[0]["error"])
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "meta": meta}
    if not trace:
        step_ms = [1e3 * t for s in segments for t in s["step_s"]]
        q = tail_quantile(steps)
        segment_s = statistics.median(s["wall_s"] for s in finished)
        out["metrics"] = {
            "steps_per_s": steps / segment_s,
            "step_ms.p50": percentile(step_ms, 0.5),
            "step_ms.tail": percentile(step_ms, q),
            "setup_s": statistics.median(setups),
            "suite_s": segment_s,
            "peak_rss_mb": rss,
        }
        out["notes"] = ["step_ms.tail is p%.1f of %d steps (%d segments of "
                        "%d)" % (100 * q, len(step_ms), len(segments), steps)]
        return out
    plain = [s["wall_s"] for s in finished if not s["traced"]]
    traced = [s["wall_s"] for s in finished if s["traced"]]
    if not plain or not traced:
        raise BenchError("trace run needs an untraced and a traced segment")
    setup = load_spans(spans_dir / "setup.json")[0]
    units = [tracerlib.merge(setup + load_spans(path)[0])
             for path in sorted(spans_dir.glob("segment-*.json"))]
    drift_e = max(s["energy_drift"] for s in finished)
    drift_f = max(s["fiber_drift"] for s in finished)
    metrics = span_metrics(units)
    metrics.update({"cli.scenario_s." + stem: 0.0
                    for stem, _, _ in scenario_configs()})
    metrics.update({
        "cli.import_s": 0.0,
        "energy_drift": drift_e,
        "fiber_drift": drift_f,
        "checks_worst_ratio": max(drift_e / worker.ENERGY_BOUND,
                                  drift_f / worker.FIBER_BOUND),
        "trace_overhead.steps_per_s": (steps / statistics.median(traced)
                                       - steps / statistics.median(plain)),
        "trace_overhead.suite_s": (statistics.median(traced)
                                   - statistics.median(plain)),
    })
    out["metrics"] = metrics
    setup_s = sum(rec["total_s"] for per, _ in setup
                  for name, rec in per.items() if name == "bench.setup")
    out["shares"] = shares(units[0], traced[0] + setup_s)
    return out


def load_spans(path):
    """The per-root summaries of one spans file, and its other fields."""
    data = json.loads(Path(path).read_text())
    return list(tracerlib.summarise(data.pop("spans")).values()), data


def scenario_configs():
    configs = sorted((ROOT / "configs").glob("*.json"))
    if not configs:
        raise BenchError("no configs/*.json in %s" % ROOT)
    return [(path.stem, json.loads(path.read_text())["experiment"], path)
            for path in configs]


def cli_workload(seed, seconds, trace, env, work, short):
    probes = 1 if short or trace else SETUP_PROBES
    setups, meta = setup_times("cli-scenarios", seed, env, work, probes)
    configs = scenario_configs()
    passes = []           # per pass: {"traced", "wall_s", "runs": {stem: ...}}
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = bool(trace) and index % 2 == 1   # alternate, as for flows
        runs = {}
        t0 = time.perf_counter()
        for stem, experiment, path in configs:
            outdir = work / ("pass%d" % index) / stem
            args = [experiment, "--config", str(path), "--seed", str(seed),
                    "--quiet", "--output", str(outdir)]
            spans = work / ("spans-%d-%s.json" % (index, stem))
            cmd = ([sys.executable, str(HERE / "cli_launch.py"), str(spans)]
                   if traced else [sys.executable, "-m", "liedouble.cli"])
            rc, secs, _, rss = run_process(cmd + args, env, work)
            report = None
            if (outdir / "report.json").exists():
                report = json.loads((outdir / "report.json").read_text())
            same = csv_identical(work / "pass0" / stem, outdir)
            bad, known = gate_scenario(stem, rc, report, same)
            attempted += 1
            failed += bad
            correct = correct and (not bad or known)
            runs[stem] = {"seconds": secs, "rss_mb": rss, "report": report,
                          "spans": spans, "known": known}
        passes.append({"traced": traced, "wall_s": time.perf_counter() - t0,
                       "runs": runs})
        used = time.perf_counter() - start
        enough = len(passes) >= MIN_PASSES
        if enough and used + passes[-1]["wall_s"] > seconds:
            break
    setups += setup_times("cli-scenarios", seed, env, work, probes)[0]
    known = sorted({s for p in passes for s, r in p["runs"].items()
                    if r["known"]})
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "meta": meta,
           "notes": ["known baseline failure in %s (see KNOWN_FAILURES)" % s
                     for s in known]}
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        secs = [r["seconds"] for p in passes for r in p["runs"].values()]
        per_config = [statistics.median(p["runs"][stem]["seconds"]
                                        for p in passes)
                      for stem, _, _ in configs]
        out["metrics"] = {
            "steps_per_s": len(configs) / statistics.median(
                sum(r["seconds"] for r in p["runs"].values()) for p in passes),
            "step_ms.p50": 1e3 * statistics.median(secs),
            "step_ms.tail": 1e3 * max(per_config),
            "setup_s": statistics.median(setups),
            "suite_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": max(r["rss_mb"] for p in passes
                               for r in p["runs"].values()),
        }
        out["notes"].append(
            "step_ms.tail is the slowest scenario's median over %d passes "
            "(a pass has %d scenarios, fewer than %d)"
            % (len(passes), len(configs), TAIL_BEYOND + 1))
        return out
    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    plain_walls = [p["wall_s"] for p in plain]
    units, imports = [], []
    for p in passes:
        if not p["traced"]:
            continue
        parts = []
        for r in p["runs"].values():
            if not r["spans"].exists():
                raise BenchError("%s wrote no spans" % r["spans"].name)
            summaries, extra = load_spans(r["spans"])
            parts += summaries
            imports.append(extra["import_s"])
        units.append(tracerlib.merge(parts))
    reports = [r["report"] for r in plain[0]["runs"].values() if r["report"]]
    checks = [c for rep in reports for c in rep["checks"]]
    metrics = span_metrics(units)
    metrics.update({
        "cli.import_s": statistics.median(imports),
        "energy_drift": max(c["residual"] for c in checks
                            if c["name"] in ENERGY_CHECKS),
        "fiber_drift": max(c["residual"] for c in checks
                           if c["name"] in FIBER_CHECKS),
        "checks_worst_ratio": max(c["residual"] / c["tolerance"]
                                  for c in checks),
        "trace_overhead.steps_per_s": (
            len(configs) / statistics.median(traced_walls)
            - len(configs) / statistics.median(plain_walls)),
        "trace_overhead.suite_s": (statistics.median(traced_walls)
                                   - statistics.median(plain_walls)),
    })
    for stem, _, _ in configs:
        metrics["cli.scenario_s." + stem] = statistics.median(
            p["runs"][stem]["seconds"] for p in plain)
    out["metrics"] = metrics
    out["shares"] = shares(units[0], traced_walls[0])
    return out


def csv_identical(first, later):
    """Whether every CSV artifact in `later` matches the first pass's."""
    if first == later:
        return True
    names = sorted(p.name for p in later.glob("*.csv"))
    if names != sorted(p.name for p in first.glob("*.csv")):
        return False
    return all((first / n).read_bytes() == (later / n).read_bytes()
               for n in names)


def span_metrics(units):
    """SPAN_METRICS from per-unit summaries: counts and payloads from the
    first unit, times as the mean over units. A prefix that names no span
    sums every span below it (sigma.self_ms covers all sigma.* spans)."""
    out = {}
    for metric in SPAN_METRICS:
        prefix, field = metric.rsplit(".", 1)
        if field in ("self_ms", "total_ms"):
            key = field[:-3] + "_s"
            vals = [sum(rec[key] for name, rec in per.items()
                        if name == prefix or name.startswith(prefix + "."))
                    for per, _ in units]
            out[metric] = 1e3 * statistics.mean(vals)
        else:
            key = "payload" if field in PAYLOAD_FIELDS else field
            out[metric] = sum(rec[key] for name, rec in units[0][0].items()
                              if name == prefix
                              or name.startswith(prefix + "."))
    return out


def shares(unit, wall_s):
    """Human-readable self-time shares and kernel attribution of a unit."""
    per, kernels = unit
    lines = ["self-time share of one traced unit (%.3f s):" % wall_s]
    for name, rec in sorted(per.items(), key=lambda kv: -kv[1]["self_s"]):
        if name.startswith("bench."):
            continue
        lines.append("  %-38s %6.1f%%  %8d calls" % (
            name, 100 * rec["self_s"] / wall_s, rec["calls"]))
    lines.append("kernel time by calling span:")
    for (kname, caller), rec in sorted(kernels.items(),
                                       key=lambda kv: -kv[1]["self_s"]):
        lines.append("  %-20s in %-34s %6.1f%%  %8d calls" % (
            kname, caller, 100 * rec["self_s"] / wall_s, rec["calls"]))
    return lines


# --- reporting -------------------------------------------------------------------

def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc))


def declared_units(spec, trace):
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def metric_unit(name):
    """The unit this benchmark reports for a metric it knows."""
    fixed = {"steps_per_s": "steps/s", "step_ms.p50": "ms",
             "step_ms.tail": "ms", "setup_s": "s", "suite_s": "s",
             "peak_rss_mb": "MB", "cli.import_s": "s",
             "energy_drift": "1", "fiber_drift": "1",
             "checks_worst_ratio": "ratio",
             "trace_overhead.steps_per_s": "steps/s",
             "trace_overhead.suite_s": "s"}
    if name in fixed:
        return fixed[name]
    if name.startswith("cli.scenario_s."):
        return "s"
    return FIELD_UNITS[name.rsplit(".", 1)[1]]


def result_line(spec, trace, out):
    """The final JSON line; refuses metrics that BENCHMARK.json does not
    declare, declared ones that are missing, and mismatched units."""
    declared = declared_units(spec, trace)
    unknown = sorted(set(out["metrics"]) - set(declared))
    missing = sorted(set(declared) - set(out["metrics"]))
    if unknown or missing:
        raise BenchError("metrics not matching BENCHMARK.json: unknown %s, "
                         "missing %s" % (unknown, missing))
    metrics = {}
    for name, unit in declared.items():
        if metric_unit(name) != unit:
            raise BenchError("%s is measured in %s, BENCHMARK.json says %s"
                             % (name, metric_unit(name), unit))
        metrics[name] = {"value": out["metrics"][name], "unit": unit}
    return json.dumps({"correct": bool(out["correct"]),
                       "attempted": int(out["attempted"]),
                       "failed": int(out["failed"]), "metrics": metrics})


def machine_meta(seed, meta):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return dict(meta or {}, nproc=len(os.sched_getaffinity(0)), cpu=cpu,
                commit=commit, seed=seed)


WORKLOADS = {
    "base-fiber-flow": lambda *a: flow_workload("base-fiber-flow", *a),
    "loop-fiber-flow": lambda *a: flow_workload("loop-fiber-flow", *a),
    "cli-scenarios": cli_workload,
}


def main(argv=None):
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        ap.add_argument("--workload", required=True, choices=names)
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--seconds", type=float, required=True)
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        ap.add_argument("--short", action="store_true",
                        help="short segments and one set-up probe, for the "
                             "benchmark's own tests")
        args = ap.parse_args(argv)
        if args.workload not in WORKLOADS:
            raise BenchError("no implementation for workload %r"
                             % args.workload)
        if not (ROOT / "src" / "liedouble" / "__init__.py").exists():
            raise BenchError("no liedouble sources under %s" % (ROOT / "src"))
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        try:
            out = WORKLOADS[args.workload](
                args.seed, args.seconds, args.trace, child_env(work), work,
                args.short)
            line = result_line(spec, args.trace, out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if not any(WORK_ROOT.iterdir()):
                WORK_ROOT.rmdir()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print("meta " + json.dumps(machine_meta(args.seed, out.get("meta"))))
    for note in out.get("notes", []) + out.get("shares", []):
        print(note)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
