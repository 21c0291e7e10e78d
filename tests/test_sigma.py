import numpy as np
import pytest

from liedouble import dynamics, group, loop, sigma
from liedouble.algebra import get_algebra
from liedouble.dynamics import EnergyOperator, IntegratorConfig
from liedouble.group import GroupCocycle
from liedouble.phase import PhaseSpace
from oracles import (dtheta_check_per_pair, el_residual_per_point,
                     stack_points)


SL2 = get_algebra("sl2c-iwasawa")
SO3 = get_algebra("so3-cotangent")

MU0_SL2 = np.zeros(6)
MU0_SL2[3] = 0.9
SPACE_SL2 = PhaseSpace(SL2, GroupCocycle.coboundary(SL2, MU0_SL2))

MU0_SO3 = SO3.project(np.array([0., 0, 0, 0.8, -0.3, 0.5]), "minus")
SPACE_SO3 = PhaseSpace(SO3, GroupCocycle.coboundary(SO3, MU0_SO3))

SPACES = [SPACE_SL2, SPACE_SO3]


def make_fibers(space, rng):
    a = space.algebra
    if a is SL2:
        em = np.zeros(6)
        em[3] = 0.7
        kern = group.exp(a, 0.3 * np.eye(6)[3])
    else:
        em = a.project(rng.standard_normal(6) * 0.5, "minus")
        v = np.zeros(6)
        v[3:] = MU0_SO3[3:]
        kern = group.exp(a, 0.4 * v)
    return [space.fiber(group.identity(a), em), space.fiber(kern, em)]


class TestTheta:
    @pytest.mark.parametrize("space", SPACES)
    def test_minus_dtheta_is_omega(self, space, rng):
        for fiber in make_fibers(space, rng):
            p = space.random_fiber_point(fiber, rng)
            assert sigma.dtheta_check(space, fiber, p, rng) < 1e-6

    @pytest.mark.parametrize("seed", [17, 18])
    @pytest.mark.parametrize("space", SPACES)
    def test_stack_matches_per_pair_loop(self, space, seed):
        rng = np.random.default_rng(seed)
        fiber = make_fibers(space, rng)[1]
        p = space.random_fiber_point(fiber, rng, 0.3)
        got = sigma.dtheta_check(space, fiber, p, np.random.default_rng(seed))
        want = dtheta_check_per_pair(space, fiber, p,
                                     np.random.default_rng(seed))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_nan_sample_is_the_residual(self, rng, monkeypatch):
        # one NaN pair among finite ones: the check reports NaN
        space = SPACE_SL2
        fiber = make_fibers(space, rng)[1]
        p = space.random_fiber_point(fiber, rng, 0.3)
        real = PhaseSpace.omega_c

        def nan_in_second(self, *args):
            out = real(self, *args).copy()
            out[1] = np.nan
            return out

        monkeypatch.setattr(PhaseSpace, "omega_c", nan_in_second)
        assert np.isnan(sigma.dtheta_check(space, fiber, p, rng))


class TestLagrangian:
    @pytest.mark.parametrize("space", SPACES)
    def test_three_routes_agree(self, space, rng):
        a = space.algebra
        e = EnergyOperator.preset(a, "skewed")
        for fiber in make_fibers(space, rng):
            for _ in range(5):
                gp = group.exp(a, a.project(0.4 * rng.standard_normal(6),
                                            "plus"))
                gdot = a.project(rng.standard_normal(6), "plus")
                vals = [sigma.lagrangian_N(space, e, gp, gdot, fiber, r)
                        for r in ("legendre", "blocks", "r-form")]
                assert vals[0] == pytest.approx(vals[1], abs=1e-9)
                assert vals[1] == pytest.approx(vals[2], abs=1e-9)

    @pytest.mark.parametrize("space", SPACES)
    def test_routes_on_a_stack_are_per_point(self, space, rng):
        # K points as one stack give the K single-point Lagrangians
        a = space.algebra
        e = EnergyOperator.preset(a, "skewed")
        fiber = make_fibers(space, rng)[1]
        p = space.random_fiber_point(fiber, rng, 0.3, batch=4)
        gp = p.g_plus()
        gdot = dynamics.legendre_map(space, e, p, fiber)
        for route in ("legendre", "blocks", "r-form"):
            vals = sigma.lagrangian_N(space, e, gp, gdot, fiber, route)
            assert vals.shape == (4,)
            for i, val in enumerate(vals):
                one = group.GroupPoint(a, gp.matrix[i])
                assert val == pytest.approx(sigma.lagrangian_N(
                    space, e, one, gdot[i], fiber, route), abs=1e-14)

    @pytest.mark.parametrize("space", SPACES)
    def test_el_residual_matches_per_point_oracle(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fibers(space, rng)[1]
        tr = dynamics.flow_fiber(space, h, space.random_fiber_point(
            fiber, rng, 0.4), fiber, IntegratorConfig(0.01, 20))
        # the stencil divides the round-off of the momenta by 2 dt
        assert sigma.el_residual(space, e, tr, fiber) == pytest.approx(
            el_residual_per_point(space, e, tr, fiber), rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("space", SPACES)
    def test_el_residual_second_order(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fibers(space, rng)[1]
        p0 = space.random_fiber_point(fiber, rng, 0.4)
        steps = (0.02, 0.01, 0.005)
        res = []
        for dt in steps:
            tr = dynamics.flow_fiber(space, h, p0, fiber,
                                     IntegratorConfig(dt, round(0.5 / dt)))
            res.append(sigma.el_residual(space, e, tr, fiber))
        slope = np.polyfit(np.log(steps), np.log(res), 1)[0]
        assert slope >= 1.8

    @pytest.mark.parametrize("space", SPACES)
    def test_el_residual_large_off_shell(self, space, rng):
        # negative control: a non-solution path has O(1) residual
        a = space.algebra
        e = EnergyOperator.preset(a, "skewed")
        fiber = make_fibers(space, rng)[0]
        times = np.arange(0, 0.2, 0.01)
        x = a.project(np.ones(6), "plus")
        pts = []
        for t in times:
            gp = group.exp(a, np.sin(3 * t) * x)
            etap = a.project(np.cos(2 * t) * np.ones(6), "plus")
            pts.append(space.fiber_point(fiber, gp, etap))
        tr = dynamics.Trajectory(times, stack_points(pts),
                                 np.zeros(len(times)))
        assert sigma.el_residual(space, e, tr, fiber) > 1e-2


class TestBivector:
    @pytest.mark.parametrize("space", SPACES)
    def test_defining_relation(self, space, rng):
        a = space.algebra
        gp = group.exp(a, a.project(0.5 * rng.standard_normal(6), "plus"))
        pi_r = sigma.bivector_pi(a, gp)
        for _ in range(10):
            xm = a.project(rng.standard_normal(6), "minus")
            ym = a.project(rng.standard_normal(6), "minus")
            lhs = a.pair(pi_r @ xm, ym)
            rhs = a.pair(a.project(group.adjoint(gp.inv(), xm), "minus"),
                         a.project(group.adjoint(gp.inv(), ym), "plus"))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("space", SPACES)
    def test_antisymmetric_and_vanishes_at_identity(self, space, rng):
        a = space.algebra
        gp = group.exp(a, a.project(0.5 * rng.standard_normal(6), "plus"))
        pi_r = sigma.bivector_pi(a, gp)
        xm = a.project(rng.standard_normal(6), "minus")
        ym = a.project(rng.standard_normal(6), "minus")
        assert a.pair(pi_r @ xm, ym) == pytest.approx(
            -a.pair(pi_r @ ym, xm), abs=1e-10)
        pi_e = sigma.bivector_pi(a, group.identity(a))
        np.testing.assert_allclose(pi_e @ xm, 0, atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_operator_identity(self, space, sign, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        for _ in range(5):
            gp = group.exp(space.algebra,
                           space.algebra.project(
                               0.5 * rng.standard_normal(6), "plus"))
            assert sigma.operator_identity_check(space, e, gp, sign) < 1e-9


class TestDensity:
    def test_k_zero_collapse_without_cocycle(self, rng):
        # zero cocycle: the static density is the mechanical Lagrangian
        space = PhaseSpace(SO3)
        a = space.algebra
        e = EnergyOperator.preset(a, "skewed")
        em = a.project(rng.standard_normal(6) * 0.5, "minus")
        fiber = space.fiber(group.identity(a), em)
        gp = group.exp(a, a.project(0.4 * rng.standard_normal(6), "plus"))
        gdot = a.project(rng.standard_normal(6), "plus")
        ld = sigma.lagrangian_density(space, e, gp, gdot, np.zeros(6),
                                      fiber, 0.0)
        lm = sigma.lagrangian_N(space, e, gp, gdot, fiber, "r-form")
        assert ld == pytest.approx(lm, abs=1e-10)

    def test_lightcone_combination(self, rng):
        # the k-dependence enters only through gdot +- k gprime
        space = PhaseSpace(SO3)
        a = space.algebra
        e = EnergyOperator.preset(a, "isotropic")
        em = a.project(rng.standard_normal(6) * 0.5, "minus")
        fiber = space.fiber(group.identity(a), em)
        gp = group.exp(a, a.project(0.4 * rng.standard_normal(6), "plus"))
        gdot = a.project(rng.standard_normal(6), "plus")
        gprime = a.project(rng.standard_normal(6), "plus")
        k = 0.7
        v1 = sigma.lagrangian_density(space, e, gp, gdot, gprime, fiber, k)
        v2 = sigma.lagrangian_density(space, e, gp, gdot, -gprime, fiber, -k)
        assert v1 == pytest.approx(v2, abs=1e-12)

    # (base, energy, constant g- and eta- of the fiber, level, sites)
    LOOP_CASES = (
        [(b, "skewed", np.zeros(6), 0.5 * np.eye(6)[3], k, n)
         for b in (SL2, SO3) for k in (0.0, 0.6, -1.3) for n in (8, 32)]
        # configs/loop_flow.json's fiber
        + [(SL2, "isotropic", 0.3 * np.eye(6)[3], 0.5 * np.eye(6)[3], 0.6, n)
           for n in (8, 32, 128)])

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_loop_density_is_the_mechanical_lagrangian(self, case, rng):
        # with the level-k lattice cocycle, C_k(g+^{-1}) = -k psi(gprime)
        # for gprime = g+^{-1} d_s g+ and the unitary g+ of the built-in
        # doubles, so the density's slot psi_bar(eta-) + k gprime is the
        # carrier: the density is the mechanical Lagrangian on the fiber,
        # by every route (the paper's closing claim)
        base, energy, gm, em, k, n = case
        a = loop.build_loop_double(base, n)
        space = PhaseSpace(a, loop.loop_group_cocycle(a, k))
        e = EnergyOperator.preset(a, energy)
        fiber = space.fiber(group.exp(a, loop.constant_loop(a, gm)),
                            loop.constant_loop(a, em) / n)
        gp = group.exp(a, a.project(loop.sampled_loop(
            a, loop._smooth_coeffs(base, rng, modes=2, scale=0.3)), "plus"))
        gdot = a.project(loop.sampled_loop(
            a, loop._smooth_coeffs(base, rng, modes=2, scale=0.3)), "plus")
        gprime = a.mat_to_vec(
            gp.inv().matrix @ loop.d_s(a.lattice, gp.matrix, -3))
        ld = sigma.lagrangian_density(space, e, gp, gdot, gprime, fiber, k)
        for route in ("legendre", "blocks", "r-form"):
            lm = sigma.lagrangian_N(space, e, gp, gdot, fiber, route)
            assert abs(ld - lm) < 1e-13, route

    def test_k_zero_reads_eta_minus_not_the_carrier(self):
        # sl2_flow.json's coboundary puts C(g+^{-1}) into the carrier, which
        # the static density does not read: it is the mechanical Lagrangian
        # of the zero cocycle, not of this one
        rng = np.random.default_rng(1)
        gp = group.exp(SL2, SL2.project(0.4 * rng.standard_normal(6),
                                        "plus"))
        gdot = SL2.project(rng.standard_normal(6), "plus")
        e = EnergyOperator.preset(SL2, "skewed")
        fiber = make_fibers(SPACE_SL2, rng)[1]
        ld = sigma.lagrangian_density(SPACE_SL2, e, gp, gdot, np.zeros(6),
                                      fiber, 0.0)
        lm = sigma.lagrangian_N(SPACE_SL2, e, gp, gdot, fiber, "r-form")
        zero = PhaseSpace(SL2)
        lm_zero = sigma.lagrangian_N(zero, e, gp, gdot, zero.fiber(
            fiber.g_minus, fiber.eta_minus), "r-form")
        assert abs(ld - lm) > 1e-3
        assert ld == pytest.approx(lm_zero, abs=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_stack_is_per_point(self, space, rng):
        a, k = space.algebra, 3
        e = EnergyOperator.preset(a, "skewed")
        fiber = make_fibers(space, rng)[0]
        gp = group.exp(a, a.project(0.4 * rng.standard_normal(
            (k,) + a.shape), "plus"))
        gdot, gprime = a.project(rng.standard_normal((2, k) + a.shape),
                                 "plus")
        ld = sigma.lagrangian_density(space, e, gp, gdot, gprime, fiber, 0.7)
        assert ld.shape == (k,)
        for i in range(k):
            one = sigma.lagrangian_density(
                space, e, group.GroupPoint(a, gp.matrix[i]), gdot[i],
                gprime[i], fiber, 0.7)
            assert ld[i] == pytest.approx(one, rel=1e-12, abs=1e-12)
