"""What the benchmark under perfbench/ reads of the library: the names its
tracer wraps, and the set-ups of its flow workloads (flat base vectors,
``constant_loop``, ``sampled_loop`` and ``project``)."""

import importlib
import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("module,path", [
    (module, path) for module, path, _, _ in tracer.LIBRARY_TARGETS])
def test_tracer_targets_resolve(module, path):
    # every span a --trace 1 run wraps names a library attribute
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_build_probes_read_point_caches():
    # the tracer counts cache misses of ad_matrix and factors by these,
    # and re-wraps a Hamiltonian through has_analytic_differential
    from liedouble import algebra, group, phase
    for owner, name in ((group.GroupPoint, "_ad"),
                        (group.GroupPoint, "_factors"),
                        (phase.Observable, "has_analytic_differential")):
        assert getattr(owner, name) is not None
    g = group.identity(algebra.get_algebra("sl2c-iwasawa"))
    for attr, build in (("_ad", g.ad_matrix), ("_factors", g.factors)):
        assert getattr(g, attr) is None
        build()
        assert getattr(g, attr) is not None
    assert phase.Observable(len, diff=len).has_analytic_differential


@pytest.mark.parametrize("setup", [worker.setup_base, worker.setup_loop])
def test_flow_workloads_run(setup):
    # a short segment as the benchmark measures it: every step within the
    # energy and fiber bounds
    h, integrate = setup(1009, 4)
    seg = worker.run_segment(h, integrate)
    assert "error" not in seg, seg.get("error")
    assert seg["steps"] == 4 and seg["failed_steps"] == 0
    assert len(seg["step_s"]) == 4
    assert np.isfinite(seg["energy_drift"])
