"""Tests of the benchmark itself, in its short mode (about a minute).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def short(workload, seed, trace):
    rc, result = bench("--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--short")
    assert rc == 0 and result is not None
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = short(workload, 3, trace)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in section} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert np.isfinite(v["value"]), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (short("base-fiber-flow", 5, 1) for _ in range(2))
    counts = [name for name in first["metrics"]
              if name.endswith((".calls", ".builds", ".flops", ".matrices"))]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    for name in ("energy_drift", "fiber_drift", "checks_worst_ratio"):
        assert first["metrics"][name] == second["metrics"][name], name


class _FakeTrajectory:
    def __init__(self, energies, drift):
        self.energies = np.asarray(energies)
        self.extras = {"drift_gminus": np.asarray(drift),
                       "drift_etaminus": np.zeros(len(drift))}
        self.points = [_FakePoint()]


class _FakePoint:
    class g:
        matrix = np.eye(2)
    eta = np.zeros(6)


class _FakeObservable:
    name = "fake"

    def value(self, p):
        return 0.0

    def analytic_differential(self, p):
        raise AssertionError("not called")


@pytest.mark.parametrize("energies, drift", [
    ([1.0, 1.0, np.nan], [0.0, 0.0, 0.0]),
    ([1.0, 1.0, 1.0], [0.0, np.inf, 0.0]),
    ([1.0, 1.0 + 1e-3, 1.0], [0.0, 0.0, 0.0]),
])
def test_bad_drift_is_a_failed_step(energies, drift):
    def integrate(obs):
        for _ in energies:
            obs.value(None)
        return _FakeTrajectory(energies, drift)

    seg = worker.run_segment(_FakeObservable(), integrate)
    attempted, failed, correct = run.gate_segments([seg])
    assert attempted == 2 and failed == 1 and not correct


def test_raising_step_is_a_failure():
    def integrate(obs):
        obs.value(None)
        obs.value(None)
        raise FloatingPointError("injected")

    seg = worker.run_segment(_FakeObservable(), integrate)
    attempted, failed, correct = run.gate_segments([seg])
    assert (attempted, failed, correct) == (2, 1, False)


def test_nonzero_scenario_exit_is_a_failure():
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work:
        rc, _, _, _ = run.run_process(
            [sys.executable, "-c", "import sys; sys.exit(3)"],
            run.child_env(work), work)
    assert rc == 3
    assert run.gate_scenario("sl2_flow", rc, None, True) == (True, False)


def _report(name, residual, tolerance=1e-6):
    passed = residual < tolerance
    return {"passed": passed, "checks": [
        {"name": name, "residual": residual, "tolerance": tolerance,
         "passed": passed}]}


def test_scenario_gate():
    ok = _report("loop/energy_drift", 1e-7)
    assert run.gate_scenario("loop_flow", 0, ok, True) == (False, False)
    # the recorded baseline failure still counts as failed
    bad = _report("loop/energy_drift", 2e-5)
    assert run.gate_scenario("loop_flow", 1, bad, True) == (True, True)
    assert run.gate_scenario("sl2_flow", 1, bad, True) == (True, False)
    nan = _report("loop/energy_drift", float("nan"))
    assert run.gate_scenario("sl2_flow", 1, nan, True) == (True, False)
    assert run.gate_scenario("loop_flow", 0, ok, False) == (True, False)


def test_unknown_workload_is_rejected():
    rc, result = bench("--workload", "no-such-workload", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
    assert rc != 0 and result is None


def test_undeclared_or_missing_metric_is_rejected():
    names = [m["name"] for m in SPEC["end_to_end"]]
    out = {"correct": True, "attempted": 1, "failed": 0,
           "metrics": dict.fromkeys(names, 1.0)}
    json.loads(run.result_line(SPEC, 0, out))
    with pytest.raises(run.BenchError):
        run.result_line(SPEC, 0, dict(out, metrics=dict(
            out["metrics"], undeclared_ms=1.0)))
    with pytest.raises(run.BenchError):
        run.result_line(SPEC, 0, dict(out, metrics=dict.fromkeys(
            names[1:], 1.0)))


def test_fails_without_the_program():
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, result = bench("--workload", "cli-scenarios", "--seed", "0",
                           "--seconds", "1", "--trace", "0", cwd=bare)
    assert rc != 0 and result is None
