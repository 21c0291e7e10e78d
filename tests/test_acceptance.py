"""End-to-end acceptance gate: nine criteria, one summary line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as the
criteria execute; each test also fails loudly if its criterion fails.
"""

import os

import numpy as np
import pytest

from liedouble import cli, dynamics, group, loop, sigma
from liedouble.algebra import get_algebra, validate_manin
from liedouble.dynamics import EnergyOperator, IntegratorConfig
from liedouble.group import GroupCocycle
from liedouble.phase import PhasePoint, PhaseSpace


def criterion_rng(num):
    """Criterion num's own generator: its inputs do not depend on which
    other criteria ran before it."""
    return np.random.default_rng([20260823, num])


SL2 = get_algebra("sl2c-iwasawa")
SO3 = get_algebra("so3-cotangent")

MU0_SL2 = np.zeros(6)
MU0_SL2[3] = 0.9
SPACE_SL2 = PhaseSpace(SL2, GroupCocycle.coboundary(SL2, MU0_SL2))

MU0_SO3 = SO3.project(np.array([0., 0, 0, 0.8, -0.3, 0.5]), "minus")
SPACE_SO3 = PhaseSpace(SO3, GroupCocycle.coboundary(SO3, MU0_SO3))


def fiber_sl2(space=SPACE_SL2):
    em = np.zeros(6)
    em[3] = 0.7
    return space.fiber(group.exp(SL2, 0.3 * np.eye(6)[3]), em)


def fiber_so3(space=SPACE_SO3):
    v = np.zeros(6)
    v[3:] = MU0_SO3[3:]
    em = SO3.project(np.array([0., 0, 0, 0.4, -0.1, 0.25]), "minus")
    return space.fiber(group.exp(SO3, 0.4 * v), em)


def lattice_setup(n=8, k=0.6):
    alg = loop.build_loop_double(SL2, n)
    space = PhaseSpace(alg, loop.loop_group_cocycle(alg, k))
    b1 = np.zeros(6)
    b1[3] = 1.0
    em = np.zeros(alg.dim)
    for j in range(n):
        em[6 * j + 3] = 0.5 / n
    fiber = space.fiber(group.exp(alg, 0.3 * loop.constant_loop(alg, b1)),
                        em)
    return alg, space, fiber


def report(num, name, entries):
    """entries: (label, value, tolerance, larger_is_worse=True)."""
    failed = [e for e in entries if not e[1] < e[2]]
    status = "FAIL" if failed else "PASS"
    binding = max(entries, key=lambda e: e[1] / e[2])
    print("ACCEPTANCE %d %-24s %s  (binding: %s = %.3e, tol %.1e)"
          % (num, name, status, binding[0], binding[1], binding[2]))
    assert not failed, ["%s = %.3e !< %.1e" % e for e in failed]


def test_1_structural_suite():
    rng = criterion_rng(1)
    entries = []
    for a in (SL2, SO3):
        rep = validate_manin(a)
        for key, val in rep["checks"].items():
            tol = 1e12 if key == "pairing_condition" else 1e-12
            entries.append(("%s/%s" % (a.name, key), val, tol))
        worst = 0.0
        for _ in range(1000):
            g = group.random_point(a, rng)
            gp, gm = g.factors()
            worst = max(worst, float(np.abs(
                gp.matrix @ gm.matrix - g.matrix).max()))
            if not (gp.member("plus") and gm.member("minus")):
                worst = max(worst, 1.0)
        entries.append(("%s/factorization" % a.name, worst, 1e-10))
    report(1, "structural suite", entries)


def test_2_dirac_equivalence():
    rng = criterion_rng(2)
    space = SPACE_SL2
    fiber = fiber_sl2()
    worst = 0.0
    worst_shape = 0.0
    for _ in range(100):
        p = space.random_fiber_point(fiber, rng, 0.4)
        dmat = space.dirac_matrix(p)
        n = dmat.shape[0] // 2
        worst_shape = max(
            worst_shape,
            float(np.abs(dmat[:n, :n]).max()),
            float(np.abs(dmat[:n, n:] - np.eye(n)).max()),
            float(np.abs(dmat[n:, :n] + np.eye(n)).max()),
            float(np.abs(dmat[n:, n:] + dmat[n:, n:].T).max()))
        for _ in range(20):
            f = space.momentum_fn(rng.standard_normal(6))
            g = space.momentum_fn(rng.standard_normal(6))
            closed = space.dirac_bracket(f, g, p, fiber)
            oracle = space.dirac_oracle(f, g, p)
            worst = max(worst, abs(closed - oracle) / (1 + abs(closed)))
    report(2, "Dirac equivalence", [
        ("closed_vs_oracle", worst, 1e-7),
        ("dirac_matrix_shape", worst_shape, 1e-12)])


def test_3_remark_no_cocycle_traces():
    rng = criterion_rng(3)
    entries = []
    # lattice-derivative cocycle on the N = 8 loop double
    alg, space, fiber = lattice_setup()
    worst = 0.0
    for _ in range(2):
        p = space.random_fiber_point(fiber, rng, 0.3)
        for _ in range(5):
            f = space.momentum_fn(rng.standard_normal(alg.shape))
            g = space.momentum_fn(rng.standard_normal(alg.shape))
            full = space.dirac_bracket(f, g, p, fiber)
            red = space.dirac_bracket_reduced(f, g, p, fiber)
            worst = max(worst, abs(full - red) / (1 + abs(full)))
    entries.append(("lattice_reduced_vs_full", worst, 1e-12))
    # coboundary cocycle exchanging the isotropic factors
    assert SPACE_SO3.c2.is_isotropic_exchanging()
    fib = fiber_so3()
    worst = 0.0
    for _ in range(5):
        p = SPACE_SO3.random_fiber_point(fib, rng, 0.4)
        f = SPACE_SO3.momentum_fn(rng.standard_normal(6))
        g = SPACE_SO3.momentum_fn(rng.standard_normal(6))
        full = SPACE_SO3.dirac_bracket(f, g, p, fib)
        red = SPACE_SO3.dirac_bracket_reduced(f, g, p, fib)
        worst = max(worst, abs(full - red) / (1 + abs(full)))
    entries.append(("coboundary_reduced_vs_full", worst, 1e-12))
    report(3, "Remark II", entries)


def test_4_symmetry_restoration():
    rng = criterion_rng(4)
    worst_closed = 0.0
    for space, fiber, n_pairs in ((SPACE_SL2, fiber_sl2(), 100),
                                  (SPACE_SO3, fiber_so3(), 100)):
        a = space.algebra
        for _ in range(n_pairs):
            p = space.random_fiber_point(fiber, rng, 0.4)
            x, y = rng.standard_normal((2, 6))
            lhs = space.dirac_bracket(space.momentum_fn(x),
                                      space.momentum_fn(y), p, fiber)
            target = space.momentum_fn(a.bracket(x, y),
                                       a_ext=space.c2.eval(x, y)).value(p)
            worst_closed = max(worst_closed, abs(lhs - target))
    # negative control: non-character eta- breaks the closure
    em = np.zeros(6)
    em[4] = 0.8
    bad = SPACE_SL2.fiber(group.identity(SL2), em)
    p = SPACE_SL2.random_fiber_point(bad, rng, 0.4)
    x, y = rng.standard_normal((2, 6))
    lhs = SPACE_SL2.dirac_bracket(SPACE_SL2.momentum_fn(x),
                                  SPACE_SL2.momentum_fn(y), p, bad)
    target = SPACE_SL2.momentum_fn(SL2.bracket(x, y),
                                   a_ext=SPACE_SL2.c2.eval(x, y)).value(p)
    violation = abs(lhs - target)
    # full-space anomaly <C(g), [x, y]>
    worst_anomaly = 0.0
    for space in (SPACE_SL2, SPACE_SO3):
        a = space.algebra
        for _ in range(20):
            p = PhasePoint(group.random_point(a, rng, 0.4),
                           rng.standard_normal(6))
            x, y = rng.standard_normal((2, 6))
            full = space.poisson_c(space.momentum_fn(x),
                                   space.momentum_fn(y), p)
            jbr = space.momentum_fn(a.bracket(x, y),
                                    a_ext=space.c2.eval(x, y)).value(p)
            anomaly = space.C.value(p.g) @ a.bracket(x, y)
            worst_anomaly = max(worst_anomaly, abs(full - jbr - anomaly))
    report(4, "symmetry restoration", [
        ("closure_200_pairs", worst_closed, 1e-8),
        ("negative_control", 1.0 / (1.0 + violation), 1.0 / (1.0 + 1e-3)),
        ("full_space_anomaly", worst_anomaly, 1e-8)])


def test_5_action_consistency():
    rng = criterion_rng(5)
    worst_id = 0.0
    worst_comp = 0.0
    worst_gen = 0.0
    worst_fiber = 0.0
    for space, fiber in ((SPACE_SL2, fiber_sl2()), (SPACE_SO3, fiber_so3())):
        a = space.algebra
        for _ in range(5):
            p = space.random_fiber_point(fiber, rng, 0.4)
            q = space.group_action_d(group.identity(a), p, fiber)
            worst_id = max(worst_id,
                           float(np.abs(q.g.matrix - p.g.matrix).max()),
                           float(np.abs(q.eta - p.eta).max()))
            h1 = group.random_point(a, rng, 0.3)
            h2 = group.random_point(a, rng, 0.3)
            q12 = space.group_action_d(h1.mul(h2), p, fiber)
            q21 = space.group_action_d(h1,
                                       space.group_action_d(h2, p, fiber),
                                       fiber)
            worst_comp = max(
                worst_comp,
                float(np.abs(q12.g.matrix - q21.g.matrix).max()),
                float(np.abs(q12.eta - q21.eta).max()))
            worst_fiber = max(worst_fiber,
                              space.on_fiber_distance(q12, fiber))
            x = rng.standard_normal(6)
            step = 1e-5
            pp = space.group_action_d(group.exp(a, x, step), p, fiber)
            pm = space.group_action_d(group.exp(a, x, -step), p, fiber)
            ginv = np.linalg.inv(p.g.matrix)
            xi_fd = a.mat_to_vec(
                ginv @ (pp.g.matrix - pm.g.matrix) / (2 * step))
            rho_fd = (pp.eta - pm.eta) / (2 * step)
            xi, rho = dynamics.dirac_field(space,
                                           space.momentum_fn(x), p, fiber)
            worst_gen = max(worst_gen,
                            float(np.abs(xi_fd - xi).max()),
                            float(np.abs(rho_fd - rho).max()))
    report(5, "action consistency", [
        ("identity", worst_id, 1e-8),
        ("compatibility", worst_comp, 1e-8),
        ("generator_fd", worst_gen, 1e-5),
        ("stays_on_fiber", worst_fiber, 1e-9)])


def test_6_dynamics():
    rng = criterion_rng(6)
    space = SPACE_SL2
    e = EnergyOperator.preset(SL2, "skewed")
    h = dynamics.hamiltonian_quadratic(space, e)
    fiber = fiber_sl2()
    p0 = space.random_fiber_point(fiber, rng, 0.4)
    dts = (0.02, 0.01, 0.005)
    entries = []
    worst_fiber = 0.0
    for label, runner in (
            ("fiber", lambda cfg: dynamics.flow_fiber(space, h, p0, fiber,
                                                      cfg)),
            ("full", lambda cfg: dynamics.flow_full(space, h, p0, cfg))):
        drifts = []
        for dt in dts:
            tr = runner(IntegratorConfig(dt, round(0.4 / dt)))
            drifts.append(np.abs(tr.energies - tr.energies[0]).max())
            if label == "fiber":
                worst_fiber = max(worst_fiber,
                                  float(tr.extras["drift_gminus"].max()),
                                  float(tr.extras["drift_etaminus"].max()))
        slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
        entries.append(("energy_order_%s" % label, 3.5 / slope, 1.0))
    entries.append(("fiber_frozen", worst_fiber, 1e-9))

    def orbit_residual(fib, dt):
        q0 = space.random_fiber_point(fib, rng, 0.4)
        tr = dynamics.flow_fiber(space, h, q0, fib, IntegratorConfig(dt, 20))
        worst = 0.0
        for i in range(1, 15):
            p = tr.points[i]
            mu, _ = space.momentum_ext(p)
            mup, _ = space.momentum_ext(tr.points[i + 1])
            mum, _ = space.momentum_ext(tr.points[i - 1])
            x = group.adjoint(p.g, space.differential(h, p).deltaF)
            rhs = -(SL2.coad(x, mu) + space.c2.hat(x))
            worst = max(worst,
                        float(np.abs((mup - mum) / (2 * dt) - rhs).max()))
        return worst

    tr = dynamics.flow_fiber(space, h, p0, fiber, IntegratorConfig(0.01, 60))
    coll = dynamics.collectivity_check(space, e, tr, fiber)
    entries.append(("collective_field", coll["field"], 1e-10))
    entries.append(("collective_orbit", orbit_residual(fiber, 0.005), 1e-3))
    entries.append(("collective_recon", coll["reconstruction"], 1e-2))
    em = np.zeros(6)
    em[4] = 0.8
    bad = space.fiber(group.identity(SL2), em)
    entries.append(("negative_control",
                    1.0 / (1.0 + orbit_residual(bad, 0.005)), 1.0 / 1.1))
    report(6, "dynamics", entries)


def test_7_hamilton_lagrange():
    rng = criterion_rng(7)
    space = SPACE_SL2
    e = EnergyOperator.preset(SL2, "skewed")
    h = dynamics.hamiltonian_quadratic(space, e)
    fiber = fiber_sl2()
    p0 = space.random_fiber_point(fiber, rng, 0.4)
    dts = (0.02, 0.01, 0.005)
    res = []
    for dt in dts:
        tr = dynamics.flow_fiber(space, h, p0, fiber,
                                 IntegratorConfig(dt, round(0.5 / dt)))
        res.append(sigma.el_residual(space, e, tr, fiber))
    el_slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
    worst_round = 0.0
    worst_routes = 0.0
    for _ in range(10):
        p = space.random_fiber_point(fiber, rng, 0.4)
        gdot = dynamics.legendre_map(space, e, p, fiber)
        q = dynamics.legendre_inverse(space, e, p.g_plus(), gdot, fiber)
        worst_round = max(worst_round,
                          float(np.abs(q.eta - p.eta).max()),
                          float(np.abs(q.g.matrix - p.g.matrix).max()))
        vals = [sigma.lagrangian_N(space, e, p.g_plus(), gdot, fiber, r)
                for r in ("legendre", "blocks", "r-form")]
        worst_routes = max(worst_routes, abs(vals[0] - vals[1]),
                           abs(vals[1] - vals[2]))
    worst_op = 0.0
    for _ in range(100):
        gp = group.exp(SL2, SL2.project(0.5 * rng.standard_normal(6),
                                        "plus"))
        for sign in (1, -1):
            worst_op = max(worst_op, sigma.operator_identity_check(
                space, e, gp, sign))
    report(7, "Hamilton-Lagrange", [
        ("el_slope", 1.8 / el_slope, 1.0),
        ("legendre_roundtrip", worst_round, 1e-9),
        ("lagrangian_routes", worst_routes, 1e-9),
        ("operator_identity", worst_op, 1e-9)])


def test_8_lattice_convergence():
    rng = criterion_rng(8)
    alg, space, _ = lattice_setup()
    c2 = space.c2
    x = loop.sampled_loop(alg, loop._smooth_coeffs(SL2, rng))
    y = loop.sampled_loop(alg, loop._smooth_coeffs(SL2, rng))
    entries = [
        ("cocycle_antisymmetry", abs(c2.eval(x, y) + c2.eval(y, x)), 1e-12),
        ("isotropy_vanishing",
         max(abs(c2.eval(alg.project(x, "plus"), alg.project(y, "plus"))),
             abs(c2.eval(alg.project(x, "minus"), alg.project(y, "minus")))),
         1e-12),
        ("constant_loop_kernel",
         float(np.abs(space.C.value(group.exp(alg, loop.constant_loop(
             alg, rng.standard_normal(6))))).max()), 1e-12),
    ]
    out = loop.convergence_study(SL2, 0.6, rng=np.random.default_rng(3))
    for key, slope in out["slopes"].items():
        entries.append(("%s_slope_window" % key, abs(slope - 2.0), 0.3))
    report(8, "lattice convergence", entries)


def test_9_reproducibility(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "sl2_flow.json")
    outs = []
    for sub in ("a", "b"):
        code = cli.main(["flow", "--config", cfg,
                         "--output", str(tmp_path / sub), "--quiet"])
        assert code == 0
        outs.append((tmp_path / sub / "trajectory.csv").read_bytes())
    identical = outs[0] == outs[1]
    report(9, "reproducibility",
           [("byte_identical_csv", 0.0 if identical else 1.0, 0.5)])
