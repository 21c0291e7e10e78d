import time

import numpy as np
import pytest

from liedouble import dynamics, group, loop
from liedouble.algebra import (TwoCocycle, get_algebra, is_character,
                               validate_manin)
from liedouble.dynamics import EnergyOperator, IntegratorConfig
from liedouble.phase import Differential, PhasePoint, PhaseSpace
from oracles import (convergence_study_per_sample, dense,
                     fiber_generator_direct, flat, loop_differential_inv,
                     restricted_field_at_point)


BASE = get_algebra("sl2c-iwasawa")
N = 8
K = 0.6
ALG = loop.build_loop_double(BASE, N)
C2 = loop.loop_two_cocycle(ALG, K)
CG = loop.loop_group_cocycle(ALG, K)


def lattice_space():
    return PhaseSpace(ALG, CG)


def make_fiber(space):
    return make_fiber_on(space, N)


def make_fiber_on(space, n):
    a = space.algebra
    b1 = np.zeros(BASE.dim)
    b1[3] = 1.0
    gm0 = group.exp(a, 0.3 * loop.constant_loop(a, b1))
    em = np.zeros(a.dim)
    for j in range(n):
        em[BASE.dim * j + 3] = 0.5 / n
    return space.fiber(gm0, em)


def basis(alg):
    """The coordinate basis vectors of alg, each in the (N, d) layout."""
    return np.eye(alg.dim).reshape((-1,) + alg.shape)


def smooth_vec(alg, rng, scale=0.4):
    return loop.sampled_loop(alg, loop._smooth_coeffs(alg.lattice.base, rng,
                                                      scale=scale))


class TestBuild:
    def test_rejects_odd_or_small_site_counts(self):
        with pytest.raises(ValueError):
            loop.build_loop_double(BASE, 7)
        with pytest.raises(ValueError):
            loop.build_loop_double(BASE, 2)

    def test_validate_manin(self):
        report = validate_manin(ALG)
        assert report["passed"], report["failures"]

    def test_bracket_matches_per_site_base_bracket(self, rng):
        # oracle: the base bracket applied site by site to non-constant loops
        x = smooth_vec(ALG, rng)
        y = smooth_vec(ALG, rng)
        xs, ys = x.reshape(N, -1), y.reshape(N, -1)
        assert np.ptp(xs, axis=0).max() > 0.1
        sitewise = [BASE.bracket(xs[j], ys[j]) for j in range(N)]
        np.testing.assert_allclose(ALG.bracket(x, y).reshape(N, -1),
                                   sitewise, atol=1e-12)

    def test_constant_loops_embed_base_bracket(self, rng):
        x = rng.standard_normal(BASE.dim)
        y = rng.standard_normal(BASE.dim)
        br = ALG.bracket(loop.constant_loop(ALG, x), loop.constant_loop(ALG, y))
        np.testing.assert_allclose(
            br, loop.constant_loop(ALG, BASE.bracket(x, y)), atol=1e-12)

    def test_pairing_is_site_average(self, rng):
        x = smooth_vec(ALG, rng)
        y = smooth_vec(ALG, rng)
        xs, ys = x.reshape(N, -1), y.reshape(N, -1)
        sitewise = sum(BASE.pair(xs[j], ys[j]) for j in range(N)) / N
        assert ALG.pair(x, y) == pytest.approx(sitewise, abs=1e-12)

    def test_site_blocked_adjoint_matches_generic(self, rng):
        # oracle: probe every basis direction with a full conjugation
        rng = np.random.default_rng(9174)
        points = [group.random_point(a, rng)
                  for a in (BASE, get_algebra("so3-cotangent"))]
        points.append(group.exp(ALG, smooth_vec(ALG, rng)))
        for g in points:
            a = g.algebra
            generic = np.column_stack([
                flat(a.mat_to_vec(g.matrix @ a.vec_to_mat(e)
                                  @ np.linalg.inv(g.matrix)))
                for e in basis(a)])
            np.testing.assert_allclose(dense(g.ad_matrix()), generic,
                                       atol=1e-12)

    def test_factorization_matches_per_site_base_factorization(self):
        g = group.exp(ALG, smooth_vec(ALG, np.random.default_rng(9175)))
        gp, gm = g.factors()
        for j in range(N):
            bp, bm = group.GroupPoint(BASE, g.matrix[j:j + 1]).factors()
            np.testing.assert_array_equal(gp.matrix[j:j + 1], bp.matrix)
            np.testing.assert_array_equal(gm.matrix[j:j + 1], bm.matrix)

    def test_is_character_matches_pairwise_oracle(self):
        # oracle: <eta-, [e_i, e_j]> for every pair of minus basis vectors
        rng = np.random.default_rng(9176)
        mi = ALG.minus_indices
        char = ALG.project(loop.constant_loop(ALG, np.eye(BASE.dim)[3]),
                           "minus")
        generic = ALG.project(rng.standard_normal(ALG.shape), "minus")
        e = basis(ALG)
        for eta in (char, generic, 1e-13 * generic):
            oracle = all(abs(np.vdot(eta, ALG.bracket(e[i], e[j]))) <= 1e-12
                         for i in mi for j in mi)
            assert is_character(ALG, eta) == oracle
        assert is_character(ALG, char) and not is_character(ALG, generic)

    def test_d_s_kills_constants_and_is_exact_order_two(self, rng):
        const = loop.constant_loop(ALG, rng.standard_normal(BASE.dim))
        np.testing.assert_allclose(loop.d_s(ALG.lattice, const), 0,
                                   atol=1e-14)
        # central difference of sin(s) has the sin(ds)/ds factor exactly
        coeffs = [(np.zeros(BASE.dim), np.zeros(BASE.dim)),
                  (np.zeros(BASE.dim), np.eye(BASE.dim)[0])]
        x = loop.sampled_loop(ALG, coeffs)
        lat = ALG.lattice
        expected = (np.cos(lat.s)[:, None] * np.eye(BASE.dim)[0]
                    * np.sin(lat.ds) / lat.ds)
        np.testing.assert_allclose(loop.d_s(lat, x), expected, atol=1e-12)


class TestSiteOperators:
    def test_energy_presets_act_per_site(self):
        # no coupling between sites, the same block on every site, and the
        # block is the preset built against one site's 1/N pairing
        for name in ("isotropic", "skewed"):
            e = dense(EnergyOperator.preset(ALG, name).matrix, N)
            blocks = e.reshape(N, BASE.dim, N, BASE.dim)
            off = blocks.copy()
            off[np.arange(N), :, np.arange(N)] = 0.0
            assert np.abs(off).max() == 0.0
            site = blocks[0, :, 0]
            for j in range(N):
                np.testing.assert_array_equal(blocks[j, :, j], site)
            p = BASE.pairing / N
            np.testing.assert_allclose(site @ site, np.eye(BASE.dim),
                                       atol=1e-12)
            np.testing.assert_allclose(p @ site, (p @ site).T, atol=1e-12)

    def test_full_dimension_energy_rejected(self):
        with pytest.raises(ValueError, match="one site's 6x6 matrix"):
            EnergyOperator(ALG, np.eye(ALG.dim))

    def test_cocycle_hat_is_central_difference(self):
        # the hat of c_k on every basis vector against the dense central
        # difference
        dn = (np.roll(np.eye(N), 1, axis=1) - np.roll(np.eye(N), -1, axis=1))
        dmat = np.kron(dn / (2.0 * ALG.lattice.ds), np.eye(BASE.dim))
        np.testing.assert_allclose(flat(C2.hat(basis(ALG))).T,
                                   -K * dense(ALG.pairing, N) @ dmat,
                                   atol=1e-13)


class TestTwoCocycle:
    def test_site_sum_oracle(self, rng):
        # independent oracle: (k/N) sum_j (X_j, (d_s Y)_j)_h by explicit loop
        x = smooth_vec(ALG, rng)
        y = smooth_vec(ALG, rng)
        dy = loop.d_s(ALG.lattice, y).reshape(N, -1)
        xs = x.reshape(N, -1)
        oracle = K / N * sum(BASE.pair(xs[j], dy[j]) for j in range(N))
        assert C2.eval(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_antisymmetry_exact(self, rng):
        for _ in range(5):
            x = smooth_vec(ALG, rng)
            y = smooth_vec(ALG, rng)
            assert C2.eval(x, y) == pytest.approx(-C2.eval(y, x), abs=1e-12)

    @pytest.mark.parametrize("kind,n", [
        ("zero", 1), ("coboundary", 1), ("zero", N), ("coboundary", N),
        ("lattice", N)])
    def test_hat_of_columns_is_columnwise_hat(self, kind, n, rng):
        a = BASE if n == 1 else ALG
        c2 = (C2 if kind == "lattice" else TwoCocycle.zero(a) if kind == "zero"
              else TwoCocycle.coboundary(a, rng.standard_normal(a.dim)))
        # the columns are a stack of vectors, (k, N, d) in the site layout
        cols = rng.standard_normal((3,) + a.shape)
        want = np.stack([c2.hat(col) for col in cols])
        np.testing.assert_allclose(c2.hat(cols), want, rtol=0, atol=1e-13)

    def test_isotropic_exchanging(self, rng):
        assert C2.is_isotropic_exchanging()
        # the check reads the block-diagonal matrix of any cocycle: a
        # constant coboundary on the same loop does not exchange
        mu0 = loop.constant_loop(ALG, np.ones(BASE.dim))
        assert not TwoCocycle.coboundary(ALG, mu0).is_isotropic_exchanging()
        xp = ALG.project(smooth_vec(ALG, rng), "plus")
        yp = ALG.project(smooth_vec(ALG, rng), "plus")
        xm = ALG.project(smooth_vec(ALG, rng), "minus")
        ym = ALG.project(smooth_vec(ALG, rng), "minus")
        assert abs(C2.eval(xp, yp)) < 1e-12
        assert abs(C2.eval(xm, ym)) < 1e-12

    def test_matrix_stays_uniform(self):
        # -k P is one (d, d) block, like the pairing, so hat applies one
        # 2-D product
        m = loop.loop_two_cocycle(ALG, K).matrix
        assert m.shape == (BASE.dim, BASE.dim)
        np.testing.assert_array_equal(m, -K * ALG.pairing)

    def test_vanishes_on_constant_loops(self, rng):
        x = loop.constant_loop(ALG, rng.standard_normal(BASE.dim))
        y = smooth_vec(ALG, rng)
        # hat of a constant loop is zero: no derivative content
        np.testing.assert_allclose(C2.hat(x), 0, atol=1e-13)
        assert abs(C2.eval(y, x)) < 1e-13


class TestGroupCocycle:
    def test_constant_loops_in_kernel(self, rng):
        g = group.exp(ALG, 0.7 * loop.constant_loop(
            ALG, rng.standard_normal(BASE.dim)))
        np.testing.assert_allclose(CG.value(g), 0, atol=1e-12)
        assert group.kernel_check(CG, g)

    def test_infinitesimal_is_minus_dC(self, rng):
        h = 1e-6
        worst = 0.0
        for i in rng.choice(ALG.dim, 8, replace=False):
            e = basis(ALG)[i]
            fd = (CG.value(group.exp(ALG, e, h))
                  - CG.value(group.exp(ALG, e, -h))) / (2 * h)
            worst = max(worst, np.abs(-fd - C2.hat(e)).max())
        assert worst < 1e-8

    def test_exact_differential_at_inverse(self, rng):
        g = group.exp(ALG, smooth_vec(ALG, rng))
        # row j of M is the pullback of the unit covector e_j
        m = flat(np.array([CG.differential_inv(g, e) for e in basis(ALG)]))
        h = 1e-6
        worst = 0.0
        for i in rng.choice(ALG.dim, 8, replace=False):
            e = h * basis(ALG)[i]
            fd = (CG.value(g.mul(group.exp(ALG, e)).inv())
                  - CG.value(g.mul(group.exp(ALG, -e)).inv())) / (2 * h)
            worst = max(worst, np.abs(m[:, i] - flat(fd)).max())
        assert worst < 1e-8

    def test_pullback_matches_operator_oracle(self):
        rng = np.random.default_rng(4411)
        for _ in range(3):
            g = group.exp(ALG, smooth_vec(ALG, rng))
            delta = rng.standard_normal(ALG.shape)
            want = loop_differential_inv(ALG, K, g).T @ flat(delta)
            got = flat(CG.differential_inv(g, delta))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_cocycle_property_second_order_only(self):
        # the product identity is a convergence property, not exact
        rng = np.random.default_rng(77)
        coeffs_g = loop._smooth_coeffs(BASE, rng, modes=1, scale=0.25)
        coeffs_h = loop._smooth_coeffs(BASE, rng, modes=1, scale=0.25)
        residuals = []
        for n in (8, 16, 32):
            alg = loop.build_loop_double(BASE, n)
            cg = loop.loop_group_cocycle(alg, K)
            g = group.exp(alg, loop.sampled_loop(alg, coeffs_g))
            hh = group.exp(alg, loop.sampled_loop(alg, coeffs_h))
            lhs = cg.value(g.mul(hh))
            rhs = group.coadjoint_star(g.inv(), cg.value(hh)) + cg.value(g)
            residuals.append(np.abs(alg.psi_bar(lhs - rhs)).max())
        assert residuals[0] > 1e-4  # genuinely non-zero at N = 8
        ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
        assert all(r > 2.5 for r in ratios)  # roughly quarters per doubling


class TestLatticeDirac:
    def test_remark_two_reduced_equals_full(self):
        # the restricted bracket keeps no trace of the exchanging cocycle
        space = lattice_space()
        fiber = make_fiber(space)
        rng = np.random.default_rng(515)
        worst = 0.0
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng, 0.3)
            for _ in range(4):
                f = space.momentum_fn(smooth_vec(ALG, rng))
                g = space.momentum_fn(smooth_vec(ALG, rng))
                full = space.dirac_bracket(f, g, p, fiber)
                red = space.dirac_bracket_reduced(f, g, p, fiber)
                worst = max(worst, abs(full - red))
        assert worst < 1e-12

    def test_reduced_minus_full_is_cocycle_traces(self):
        space = lattice_space()
        fiber = make_fiber(space)
        rng = np.random.default_rng(518)
        p = space.random_fiber_point(fiber, rng, 0.3)
        for _ in range(4):
            f = space.momentum_fn(smooth_vec(ALG, rng))
            g = space.momentum_fn(smooth_vec(ALG, rng))
            diff = (space.dirac_bracket_reduced(f, g, p, fiber)
                    - space.dirac_bracket(f, g, p, fiber))
            traces = space.cocycle_traces(space.differential(f, p),
                                          space.differential(g, p), p, fiber)
            assert abs(diff - traces) <= 1e-12

    def test_generator_matches_direct_formula(self):
        space = lattice_space()
        fiber = make_fiber(space)
        rng = np.random.default_rng(519)
        p = space.random_fiber_point(fiber, rng, 0.3)
        x = smooth_vec(ALG, rng)
        xi, rho = dynamics.dirac_field(space, space.momentum_fn(x), p, fiber)
        xi_o, rho_o = fiber_generator_direct(space, x, p)
        np.testing.assert_allclose(xi, xi_o, rtol=0, atol=1e-13)
        np.testing.assert_allclose(rho, rho_o, rtol=0, atol=1e-13)

    def test_fiber_projector_matches_point_formula(self):
        # the fiber's Q against the factors of each point's own g-
        space = lattice_space()
        fiber = make_fiber(space)
        q = fiber.projector
        assert np.abs(q @ q - q).max() <= 1e-12
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(ALG, "isotropic"))
        rng = np.random.default_rng(520)
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng, 0.3)
            for obs in (h, space.momentum_fn(smooth_vec(ALG, rng))):
                d = space.differential(obs, p)
                for got, want in zip(space.restricted_field(d, p, fiber),
                                     restricted_field_at_point(space, d, p)):
                    assert (np.abs(got - want).max()
                            <= 1e-13 * np.abs(want).max())

    def test_dirac_omega_matches_pairwise_brackets(self):
        # one Poisson bracket per pair of frame covectors (0, T^i), (0, T^j)
        space = lattice_space()
        rng = np.random.default_rng(517)
        p = space.random_fiber_point(make_fiber(space), rng, 0.3)
        tm = space.frame()[1]
        n = len(tm)
        zero = np.zeros(ALG.shape)
        omega = np.array([[space.poisson_from_diff(Differential(zero, ti),
                                                   Differential(zero, tj), p)
                           for tj in tm] for ti in tm])
        np.testing.assert_allclose(space.dirac_matrix(p)[n:, n:], omega,
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_dirac_matrix_is_constraint_brackets(self, n):
        # the same continuum data at every N: the lattice cocycle's
        # compatibility identity holds only for smooth loops, and Omega
        # must not lean on it
        alg = loop.build_loop_double(BASE, n)
        space = PhaseSpace(alg, loop.loop_group_cocycle(alg, K))
        rng = np.random.default_rng(521)
        cg, ce = (loop._smooth_coeffs(BASE, rng, scale=0.3) for _ in "ge")
        p = PhasePoint(group.exp(alg, loop.sampled_loop(alg, cg)),
                       loop.sampled_loop(alg, ce) / n)
        cons = space.constraint_differentials(p)
        assert np.abs(space.dirac_matrix(p)
                      - space.poisson_from_diff(cons[:, None], cons, p)
                      ).max() <= 1e-12

    def test_closed_form_matches_generic_oracle(self):
        # the identity-free Poisson form makes the generic second-class
        # reduction agree with the closed form on the lattice as well
        space = lattice_space()
        fiber = make_fiber(space)
        rng = np.random.default_rng(516)
        p = space.random_fiber_point(fiber, rng, 0.3)
        f = space.momentum_fn(smooth_vec(ALG, rng))
        g = space.momentum_fn(smooth_vec(ALG, rng))
        closed = space.dirac_bracket(f, g, p, fiber)
        oracle = space.dirac_oracle(f, g, p)
        assert closed == pytest.approx(oracle, abs=1e-7)


class TestLoopEnergy:
    @pytest.mark.parametrize("preset", ["isotropic", "skewed"])
    def test_constant_loop_energy_is_the_base_energy(self, preset):
        # every site carries the base double's involution, so on a constant
        # loop the lattice Hamiltonian, a Riemann sum of one density, is
        # the base double's Hamiltonian at every N
        rng = np.random.default_rng(31)
        x = BASE.project(0.3 * rng.standard_normal(BASE.dim), "plus")
        eta = 0.5 * rng.standard_normal(BASE.dim)
        want = dynamics.hamiltonian_quadratic(
            PhaseSpace(BASE), EnergyOperator.preset(BASE, preset)).value(
            PhasePoint(group.exp(BASE, x), eta))
        for n in (8, 16, 32):
            alg = loop.build_loop_double(BASE, n)
            h = dynamics.hamiltonian_quadratic(
                PhaseSpace(alg), EnergyOperator.preset(alg, preset))
            # covectors carry the 1/N of the lattice pairing
            p = PhasePoint(group.exp(alg, loop.constant_loop(alg, x)),
                           loop.constant_loop(alg, eta) / n)
            assert h.value(p) == pytest.approx(want, rel=1e-12)


class TestFieldFlow:
    def test_cfl_guard(self):
        space = lattice_space()
        fiber = make_fiber(space)
        e_op = EnergyOperator.preset(ALG, "isotropic")
        h = dynamics.hamiltonian_quadratic(space, e_op)
        p0 = space.random_fiber_point(fiber, np.random.default_rng(1), 0.2)
        bad = IntegratorConfig(2.0 * ALG.lattice.ds / K, 2)
        with pytest.raises(ValueError):
            loop.field_flow(space, h, p0, fiber, bad, K)

    def test_cfl_nan_level_fails_zero_level_passes(self):
        lattice = loop.LoopLattice(BASE, 8)
        with pytest.raises(ValueError, match="CFL"):
            loop.check_cfl(lattice, 0.01, np.nan)
        assert loop.check_cfl(lattice, 0.01, 0.0) is None
        assert loop.check_cfl(lattice, 100.0, 0) is None

    def test_step_calls_no_solve(self, monkeypatch):
        # the restricted field applies operators to vectors: Ad_{g-}^{-1}
        # and Ad_g^{-1} come from the ad-invariance of the pairing
        space = lattice_space()
        fiber = make_fiber(space)
        e_op = EnergyOperator.preset(ALG, "isotropic")
        h = dynamics.hamiltonian_quadratic(space, e_op)
        p0 = space.random_fiber_point(fiber, np.random.default_rng(7), 0.2)
        calls = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        tr = loop.field_flow(space, h, p0, fiber,
                             IntegratorConfig(ALG.lattice.ds / (4 * K), 1), K)
        assert len(tr.energies) == 2 and np.all(np.isfinite(tr.energies))
        assert calls == []

    def test_energy_drift_fourth_order_and_fiber_frozen(self):
        space = lattice_space()
        fiber = make_fiber(space)
        e_op = EnergyOperator.preset(ALG, "isotropic")
        h = dynamics.hamiltonian_quadratic(space, e_op)
        p0 = space.random_fiber_point(fiber, np.random.default_rng(11), 0.3)
        dts = (0.01, 0.005, 0.0025)
        drifts = []
        for dt in dts:
            tr = loop.field_flow(space, h, p0, fiber,
                                 IntegratorConfig(dt, round(0.2 / dt)), K)
            drifts.append(np.abs(tr.energies - tr.energies[0]).max())
            assert tr.extras["drift_gminus"].max() < 1e-10
            assert tr.extras["drift_etaminus"].max() < 1e-10
        slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
        assert slope >= 3.5

    def test_small_wave_long_horizon_drift(self):
        # 500 steps at dt = ds/(4k) on N = 32: drift stays below 1e-6
        n, k = 32, K
        alg = loop.build_loop_double(BASE, n)
        space = PhaseSpace(alg, loop.loop_group_cocycle(alg, k))
        e_op = EnergyOperator.preset(alg, "isotropic")
        h = dynamics.hamiltonian_quadratic(space, e_op)
        em = np.zeros(alg.dim)
        for j in range(n):
            em[BASE.dim * j + 3] = 0.02 / n
        fiber = space.fiber(group.identity(alg), em)
        a1 = np.zeros(BASE.dim)
        a1[0] = 0.01
        wave = loop.sampled_loop(
            alg, [(np.zeros(BASE.dim), np.zeros(BASE.dim)),
                  (a1, np.zeros(BASE.dim))])
        p0 = space.fiber_point(fiber, group.exp(alg, wave),
                               np.zeros(alg.shape))
        cfg = IntegratorConfig(alg.lattice.ds / (4 * k), 500)
        tr = loop.field_flow(space, h, p0, fiber, cfg, k)
        assert np.abs(tr.energies - tr.energies[0]).max() < 1e-6

    def test_long_flow_stays_on_the_group(self):
        # 2000 steps at dt = ds/(4k) on N = 32: the closed-form inverse and
        # products keep g g^{-1} = 1 and det g = 1 to round-off, so a
        # determinant drift that the adjugate would hide shows here
        n = 32
        alg = loop.build_loop_double(BASE, n)
        space = PhaseSpace(alg, loop.loop_group_cocycle(alg, K))
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(alg, "isotropic"))
        fiber = space.fiber(group.identity(alg), loop.constant_loop(
            alg, 0.02 / n * np.eye(BASE.dim)[3]))
        rng = np.random.default_rng(2000)
        wave = alg.project(smooth_vec(alg, rng, scale=0.01), "plus")
        p0 = space.fiber_point(fiber, group.exp(alg, wave),
                               smooth_vec(alg, rng, scale=0.01) / n)
        tr = loop.field_flow(space, h, p0, fiber,
                             IntegratorConfig(alg.lattice.ds / (4 * K), 2000),
                             K)
        g = np.array([p.g.matrix for p in tr.points])
        ginv = np.array([p.g.inv().matrix for p in tr.points])
        assert np.abs(g @ ginv - np.eye(2)).max() <= 1e-12
        assert np.abs(np.linalg.det(g) - 1.0).max() <= 1e-12
        assert tr.extras["drift_gminus"].max() < 1e-10
        assert np.abs(tr.energies - tr.energies[0]).max() < 1e-6


    def test_large_lattice_step(self):
        # N = 1024 (dim 6144): dense (dim, dim) operators would need 300 MB
        # each and an O(dim^3) solve per stage; site-blocked ones do not
        start = time.perf_counter()
        n = 1024
        alg = loop.build_loop_double(BASE, n)
        space = PhaseSpace(alg, loop.loop_group_cocycle(alg, K))
        e_op = EnergyOperator.preset(alg, "isotropic")
        fiber = make_fiber_on(space, n)
        # a smooth wave; covectors carry the 1/N of the lattice pairing
        wave = smooth_vec(alg, np.random.default_rng(12), scale=0.05)
        g0 = group.exp(alg, alg.project(wave, "plus"))
        p0 = space.fiber_point(fiber, g0, wave / n)
        h = dynamics.hamiltonian_quadratic(space, e_op)
        tr = loop.field_flow(space, h, p0, fiber,
                             IntegratorConfig(alg.lattice.ds / (4 * K), 1), K)
        assert time.perf_counter() - start < 5.0
        assert np.all(np.isfinite(tr.energies))
        assert tr.extras["drift_gminus"].max() < 1e-10
        assert tr.extras["drift_etaminus"].max() < 1e-10


class TestConvergence:
    def test_identity_slopes_second_order(self):
        out = loop.convergence_study(BASE, K, rng=np.random.default_rng(3))
        for key in ("jacobi", "one_cocycle", "compatibility"):
            assert 1.7 <= out["slopes"][key] <= 2.3, (key, out["slopes"])
        # residuals decay monotonically under refinement
        for vals in out["residuals"].values():
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_stack_matches_per_sample_loop(self, seed):
        out = loop.convergence_study(BASE, K, rng=np.random.default_rng(seed))
        want = convergence_study_per_sample(BASE, K,
                                            rng=np.random.default_rng(seed))
        for key, vals in want.items():
            np.testing.assert_allclose(out["residuals"][key], vals,
                                       rtol=1e-9, atol=0, err_msg=key)
