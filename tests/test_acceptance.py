"""End-to-end acceptance gate: nine criteria, one summary line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as the
criteria execute; each test also fails loudly if its criterion fails.
A criterion evaluates its samples as point stacks and reduces them with
``_max_abs``; ``report`` judges each entry with ``_below``, the library's
verdict rule, so a NaN sample fails its criterion.
"""

import os

import numpy as np
import pytest

from liedouble import cli, dynamics, group, loop, sigma
from liedouble.algebra import (_below, _dot, _manin_bound, _max_abs,
                               get_algebra, validate_manin)
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
    """entries: (label, residual, bound). The binding entry is the one of
    largest residual/bound, a NaN one first."""
    failed = [e for e in entries if not _below(e[1], e[2])]
    status = "FAIL" if failed else "PASS"
    binding = entries[np.argmax([e[1] / e[2] for e in entries])]
    print("ACCEPTANCE %d %-24s %s  (binding: %s = %.3e, tol %.1e)"
          % (num, name, status, binding[0], binding[1], binding[2]))
    assert not failed, ["%s = %.3e !< %.1e" % e for e in failed]


def pair_stack(space, fiber, rng, scale, lead, pairs):
    """Fiber points at ``scale`` and ``pairs`` pairs (x, y) of coordinate
    vectors per point of ``lead``, drawn as single calls draw: each
    point's two, then its pairs'. The points get a pair axis of length 1."""
    v = rng.standard_normal(lead + (2 + 2 * pairs,) + space.algebra.shape)
    p = space.fiber_chart(fiber, scale * v[..., None, :2, :, :])
    return p, v[..., 2::2, :, :], v[..., 3::2, :, :]


def point_gap(p, q):
    """The largest entry by which two point stacks differ, g and eta."""
    return np.maximum(_max_abs(p.g.matrix - q.g.matrix),
                      _max_abs(p.eta - q.eta))


def order_entry(label, dts, residuals, floor):
    """The entry of a convergence order: floor/slope for a positive
    log-log slope of ``residuals`` against ``dts``, else inf, so that a
    slope below ``floor`` fails, a negative or NaN one included."""
    slope = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
    return (label, floor / slope if slope > 0 else np.inf, 1.0)


def test_1_structural_suite():
    rng = criterion_rng(1)
    entries = []
    for a in (SL2, SO3):
        for key, val in validate_manin(a)["checks"].items():
            entries.append(("%s/%s" % (a.name, key), val, _manin_bound(key)))
        g = group.random_point(a, rng, batch=1000)
        gp, gm = g.factors()
        members = gp.member("plus") and gm.member("minus")
        entries.append(("%s/factorization" % a.name, np.maximum(
            _max_abs(gp.matrix @ gm.matrix - g.matrix),
            0.0 if members else 1.0), 1e-10))
    report(1, "structural suite", entries)


def test_2_dirac_equivalence():
    rng = criterion_rng(2)
    space = SPACE_SL2
    fiber = fiber_sl2()
    # 100 points, 20 pairs of momentum functions at each
    p, x, y = pair_stack(space, fiber, rng, 0.4, (100,), 20)
    dmat = space.dirac_matrix(p)
    n = dmat.shape[-1] // 2
    omega = dmat[..., n:, n:]
    f, g = space.momentum_fn(x), space.momentum_fn(y)
    closed = space.dirac_bracket(f, g, p, fiber)
    oracle = space.dirac_oracle(f, g, p)
    report(2, "Dirac equivalence", [
        ("closed_vs_oracle", _max_abs((closed - oracle) / (1 + abs(closed))),
         1e-7),
        ("dirac_matrix_shape", _max_abs([
            dmat[..., :n, :n], dmat[..., :n, n:] - np.eye(n),
            dmat[..., n:, :n] + np.eye(n), omega + omega.mT]), 1e-12)])


def test_3_remark_no_cocycle_traces():
    rng = criterion_rng(3)
    entries = []
    # the lattice-derivative cocycle on the N = 8 loop double: 2 points,
    # 5 pairs at each; a coboundary cocycle exchanging the isotropic
    # factors: 5 points, 1 pair at each
    assert SPACE_SO3.c2.is_isotropic_exchanging()
    _, lattice_space, lattice_fiber = lattice_setup()
    for label, space, fiber, scale, lead, pairs in (
            ("lattice", lattice_space, lattice_fiber, 0.3, (2,), 5),
            ("coboundary", SPACE_SO3, fiber_so3(), 0.4, (5,), 1)):
        p, x, y = pair_stack(space, fiber, rng, scale, lead, pairs)
        f, g = space.momentum_fn(x), space.momentum_fn(y)
        full = space.dirac_bracket(f, g, p, fiber)
        red = space.dirac_bracket_reduced(f, g, p, fiber)
        entries.append(("%s_reduced_vs_full" % label,
                        _max_abs((full - red) / (1 + abs(full))), 1e-12))
    report(3, "Remark II", entries)


def test_4_symmetry_restoration():
    rng = criterion_rng(4)

    def closure_gap(space, fiber, lead):
        """{j_x, j_y}_D - j_[x,y] - c(x, y) at fiber points of ``lead``,
        one pair (x, y) at each."""
        a = space.algebra
        p, x, y = pair_stack(space, fiber, rng, 0.4, lead, 1)
        lhs = space.dirac_bracket(space.momentum_fn(x),
                                  space.momentum_fn(y), p, fiber)
        return _max_abs(lhs - space.momentum_fn(
            a.bracket(x, y), a_ext=space.c2.eval(x, y)).value(p))

    closed = _max_abs([closure_gap(SPACE_SL2, fiber_sl2(), (100,)),
                       closure_gap(SPACE_SO3, fiber_so3(), (100,))])
    # negative control: non-character eta- breaks the closure
    em = np.zeros(6)
    em[4] = 0.8
    violation = closure_gap(SPACE_SL2, SPACE_SL2.fiber(group.identity(SL2),
                                                       em), ())
    # full-space anomaly <C(g), [x, y]> at 20 points of each space
    anomaly = []
    for space in (SPACE_SL2, SPACE_SO3):
        a = space.algebra
        p = PhasePoint(group.random_point(a, rng, 0.4, batch=20),
                       rng.standard_normal((20,) + a.shape))
        x, y = rng.standard_normal((2, 20) + a.shape)
        full = space.poisson_c(space.momentum_fn(x),
                               space.momentum_fn(y), p)
        jbr = space.momentum_fn(a.bracket(x, y),
                                a_ext=space.c2.eval(x, y)).value(p)
        anomaly.append(full - jbr - _dot(space.C.value(p.g), a.bracket(x, y)))
    report(4, "symmetry restoration", [
        ("closure_200_pairs", closed, 1e-8),
        ("negative_control", 1.0 / (1.0 + violation), 1.0 / (1.0 + 1e-3)),
        ("full_space_anomaly", _max_abs(anomaly), 1e-8)])


def test_5_action_consistency():
    rng = criterion_rng(5)
    res = {"identity": [], "compatibility": [], "generator_fd": [],
           "stays_on_fiber": []}
    for space, fiber in ((SPACE_SL2, fiber_sl2()), (SPACE_SO3, fiber_so3())):
        a = space.algebra
        # 5 points, and two group elements and a direction at each
        p = space.random_fiber_point(fiber, rng, 0.4, batch=5)
        h1, h2 = (group.random_point(a, rng, 0.3, batch=5) for _ in range(2))
        x = rng.standard_normal((5,) + a.shape)
        q = space.group_action_d(group.identity(a), p, fiber)
        res["identity"].append(point_gap(q, p))
        q12 = space.group_action_d(h1.mul(h2), p, fiber)
        q21 = space.group_action_d(h1, space.group_action_d(h2, p, fiber),
                                   fiber)
        res["compatibility"].append(point_gap(q12, q21))
        res["stays_on_fiber"].append(space.on_fiber_distance(q12, fiber))
        step = 1e-5
        pp = space.group_action_d(group.exp(a, x, step), p, fiber)
        pm = space.group_action_d(group.exp(a, x, -step), p, fiber)
        ginv = np.linalg.inv(p.g.matrix)
        xi_fd = a.mat_to_vec(
            ginv @ (pp.g.matrix - pm.g.matrix) / (2 * step))
        rho_fd = (pp.eta - pm.eta) / (2 * step)
        xi, rho = dynamics.dirac_field(space, space.momentum_fn(x), p, fiber)
        res["generator_fd"].append(_max_abs([xi_fd - xi, rho_fd - rho]))
    tols = {"identity": 1e-8, "compatibility": 1e-8, "generator_fd": 1e-5,
            "stays_on_fiber": 1e-9}
    report(5, "action consistency",
           [(key, _max_abs(val), tols[key]) for key, val in res.items()])


def test_6_dynamics():
    rng = criterion_rng(6)
    space = SPACE_SL2
    e = EnergyOperator.preset(SL2, "skewed")
    h = dynamics.hamiltonian_quadratic(space, e)
    fiber = fiber_sl2()
    p0 = space.random_fiber_point(fiber, rng, 0.4)
    dts = (0.02, 0.01, 0.005)
    entries = []
    fiber_drifts = []
    for label, runner in (
            ("fiber", lambda cfg: dynamics.flow_fiber(space, h, p0, fiber,
                                                      cfg)),
            ("full", lambda cfg: dynamics.flow_full(space, h, p0, cfg))):
        drifts = []
        for dt in dts:
            tr = runner(IntegratorConfig(dt, round(0.4 / dt)))
            drifts.append(_max_abs(tr.energies - tr.energies[0]))
            if label == "fiber":
                fiber_drifts.append(_max_abs([tr.extras["drift_gminus"],
                                              tr.extras["drift_etaminus"]]))
        entries.append(order_entry("energy_order_%s" % label, dts, drifts,
                                   3.5))
    entries.append(("fiber_frozen", _max_abs(fiber_drifts), 1e-9))

    def orbit_residual(fib, dt):
        """The orbit equation of the extended momentum by centred
        differences at times 1 ... 14 of a 20-step flow."""
        q0 = space.random_fiber_point(fib, rng, 0.4)
        tr = dynamics.flow_fiber(space, h, q0, fib, IntegratorConfig(dt, 20))
        mu, _ = space.momentum_ext(tr.points)
        p = tr.points[1:15]
        x = group.adjoint(p.g, space.differential(h, p).deltaF)
        rhs = -(SL2.coad(x, mu[1:15]) + space.c2.hat(x))
        return _max_abs((mu[2:16] - mu[:14]) / (2 * dt) - rhs)

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
    p = space.random_fiber_point(fiber, rng, 0.4, batch=10)
    gdot = dynamics.legendre_map(space, e, p, fiber)
    q = dynamics.legendre_inverse(space, e, p.g_plus(), gdot, fiber)
    vals = [sigma.lagrangian_N(space, e, p.g_plus(), gdot, fiber, r)
            for r in ("legendre", "blocks", "r-form")]
    gp = group.exp(SL2, SL2.project(
        0.5 * rng.standard_normal((100,) + SL2.shape), "plus"))
    report(7, "Hamilton-Lagrange", [
        order_entry("el_slope", dts, res, 1.8),
        ("legendre_roundtrip", point_gap(q, p), 1e-9),
        ("lagrangian_routes", _max_abs([vals[0] - vals[1],
                                        vals[1] - vals[2]]), 1e-9),
        ("operator_identity", _max_abs([
            sigma.operator_identity_check(space, e, gp, sign)
            for sign in (1, -1)]), 1e-9)])


def test_8_lattice_convergence():
    rng = criterion_rng(8)
    alg, space, _ = lattice_setup()
    c2 = space.c2
    x = loop.sampled_loop(alg, loop._smooth_coeffs(SL2, rng))
    y = loop.sampled_loop(alg, loop._smooth_coeffs(SL2, rng))
    entries = [
        ("cocycle_antisymmetry", _max_abs(c2.eval(x, y) + c2.eval(y, x)),
         1e-12),
        ("isotropy_vanishing", _max_abs([
            c2.eval(alg.project(x, "plus"), alg.project(y, "plus")),
            c2.eval(alg.project(x, "minus"), alg.project(y, "minus"))]),
         1e-12),
        ("constant_loop_kernel",
         _max_abs(space.C.value(group.exp(alg, loop.constant_loop(
             alg, rng.standard_normal(6))))), 1e-12),
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


def nan_at(fn, index):
    """``fn`` with NaN at ``index`` of each stack it returns."""
    def wrapped(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out[index] = np.nan
        return out
    return wrapped


@pytest.mark.parametrize("criterion, owner, name, index, label", [
    (test_2_dirac_equivalence, PhaseSpace, "dirac_oracle", (3, 7),
     "closed_vs_oracle"),
    (test_7_hamilton_lagrange, sigma, "lagrangian_N", 4,
     "lagrangian_routes")])
def test_a_nan_sample_fails_its_criterion(monkeypatch, criterion, owner,
                                          name, index, label):
    # the NaN is not the first sample: a reduction that drops it, as
    # Python's max does after a finite value, would pass the criterion
    monkeypatch.setattr(owner, name, nan_at(getattr(owner, name), index))
    with pytest.raises(AssertionError, match=label):
        criterion()


def test_energy_order_fails_drifts_that_grow_as_dt_shrinks(monkeypatch):
    flow_full = dynamics.flow_full

    def growing(*args):
        tr = flow_full(*args)
        # the drift is T / dt^4: slope -4 against dt
        tr.energies = tr.energies[0] + tr.times / tr.times[1] ** 4
        return tr

    monkeypatch.setattr(dynamics, "flow_full", growing)
    with pytest.raises(AssertionError, match="energy_order_full"):
        test_6_dynamics()


def test_el_order_fails_residuals_that_grow_as_dt_shrinks(monkeypatch):
    monkeypatch.setattr(sigma, "el_residual",
                        lambda space, e_op, traj, fiber: traj.times[1] ** -2)
    with pytest.raises(AssertionError, match="el_slope"):
        test_7_hamilton_lagrange()
