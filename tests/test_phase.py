import numpy as np
import pytest

from liedouble import dynamics, group, loop
from liedouble.algebra import get_algebra
from liedouble.group import GroupCocycle
from liedouble.phase import Differential, PhasePoint, PhaseSpace
from oracles import (constraint_observables, dirac_matrix_inverse,
                     fd_differential, fd_observable, fiber_generator_direct,
                     flat, ham_vf_full, log_coords,
                     restricted_field_at_point)

SL2 = get_algebra("sl2c-iwasawa")
SO3 = get_algebra("so3-cotangent")

MU0_SL2 = np.zeros(6)
MU0_SL2[3] = 0.9
SPACE_SL2 = PhaseSpace(SL2, GroupCocycle.coboundary(SL2, MU0_SL2))

MU0_SO3 = SO3.project(np.array([0., 0, 0, 0.8, -0.3, 0.5]), "minus")
SPACE_SO3 = PhaseSpace(SO3, GroupCocycle.coboundary(SO3, MU0_SO3))

SPACES = [SPACE_SL2, SPACE_SO3]

# a generic coboundary: c_hat does not exchange the isotropic factors
SPACE_GENERIC = PhaseSpace(SL2, GroupCocycle.coboundary(SL2, np.ones(6)))


def rand_obs(a, rng):
    # smooth generic observable: polynomial in log coordinates and eta
    m = rng.standard_normal((a.dim, a.dim))
    v, w = rng.standard_normal((2, a.dim))

    def fn(p):
        lc, eta = flat(log_coords(p.g)), flat(p.eta)
        return float(lc @ m @ eta + v @ lc + w @ eta + 0.3 * (eta @ eta))

    return fd_observable(fn)


def rand_point(space, rng, scale=0.4):
    return PhasePoint(group.random_point(space.algebra, rng, scale),
                      rng.standard_normal(space.algebra.dim))


def make_fiber(space, rng):
    a = space.algebra
    if a is SL2:
        # g- along the cocycle stabilizer, eta- a character of sb(2)
        gm = group.exp(a, 0.3 * np.eye(6)[3])
        em = np.zeros(6)
        em[3] = 0.7
    else:
        # translations along mu0 stabilize the coboundary
        v = np.zeros(6)
        v[3:] = MU0_SO3[3:]
        gm = group.exp(a, 0.4 * v)
        em = a.project(rng.standard_normal(6), "minus")
    return space.fiber(gm, em)


def dirdev(F, p, xi, rho, h=1e-5):
    a = p.algebra
    fp = F.value(PhasePoint(p.g.mul(group.exp(a, xi, h)), p.eta + h * rho))
    fm = F.value(PhasePoint(p.g.mul(group.exp(a, xi, -h)), p.eta - h * rho))
    return (fp - fm) / (2 * h)


class TestOmega:
    @pytest.mark.parametrize("space", SPACES)
    def test_antisymmetric(self, space, rng):
        p = rand_point(space, rng)
        t1 = (rng.standard_normal(6), rng.standard_normal(6))
        t2 = (rng.standard_normal(6), rng.standard_normal(6))
        assert space.omega_c(p, t1, t2) == pytest.approx(
            -space.omega_c(p, t2, t1), abs=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_nondegenerate(self, space, rng):
        p = rand_point(space, rng)
        n = space.algebra.dim
        e = np.eye(n)
        z = np.zeros(n)
        basis = [(e[i], z) for i in range(n)] + [(z, e[i]) for i in range(n)]
        mat = np.array([[space.omega_c(p, t1, t2) for t2 in basis]
                        for t1 in basis])
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 2 * n

    @pytest.mark.parametrize("space", SPACES)
    def test_hamiltonian_field_defining_relation(self, space, rng):
        # omega_c(V_F, t) = dF(t) against directional finite differences
        for _ in range(3):
            p = rand_point(space, rng)
            F = rand_obs(space.algebra, rng)
            vf = ham_vf_full(space, F, p)
            for _ in range(4):
                xi, rho = rng.standard_normal((2, 6))
                lhs = space.omega_c(p, vf, (xi, rho))
                assert lhs == pytest.approx(dirdev(F, p, xi, rho), abs=1e-7)


class TestPoisson:
    @pytest.mark.parametrize("space", SPACES)
    def test_three_routes_agree(self, space, rng):
        for _ in range(5):
            p = rand_point(space, rng)
            F, G = rand_obs(space.algebra, rng), rand_obs(space.algebra, rng)
            closed = space.poisson_c(F, G, p)
            vf = ham_vf_full(space, F, p)
            vg = ham_vf_full(space, G, p)
            assert closed == pytest.approx(space.omega_c(p, vf, vg),
                                           abs=1e-9)
            dF = space.differential(F, p)
            assert closed == pytest.approx(
                np.vdot(dF.dF, vg[0]) + np.vdot(dF.deltaF, vg[1]), abs=1e-9)

    @pytest.mark.parametrize("space", SPACES)
    def test_antisymmetric(self, space, rng):
        p = rand_point(space, rng)
        F, G = rand_obs(space.algebra, rng), rand_obs(space.algebra, rng)
        assert space.poisson_c(F, G, p) == pytest.approx(
            -space.poisson_c(G, F, p), abs=1e-9)

    @pytest.mark.parametrize("space", SPACES + [SPACE_GENERIC])
    def test_stacked_brackets_are_pairwise_brackets(self, space, rng):
        p = rand_point(space, rng)
        rows = Differential(*rng.standard_normal((2, 5) + space.algebra.shape))
        m = space.poisson_from_diff(rows[:, None], rows, p)
        assert m.shape == (5, 5)
        for i in range(5):
            for j in range(5):
                assert m[i, j] == pytest.approx(space.poisson_from_diff(
                    Differential(rows.dF[i], rows.deltaF[i]),
                    Differential(rows.dF[j], rows.deltaF[j]), p), abs=1e-12)
        np.testing.assert_allclose(m, -m.T, atol=1e-12)


class TestConstraints:
    @pytest.mark.parametrize("space", SPACES)
    def test_frame_normalization(self, space):
        t_plus, t_minus = space.frame()
        gram = np.array([[space.algebra.pair(ta, tb) for tb in t_minus]
                         for ta in t_plus])
        np.testing.assert_allclose(gram, np.eye(len(t_plus)), atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_differentials_match_fd_of_observables(self, space, rng):
        p = rand_point(space, rng)
        cons = space.constraint_differentials(p)
        for dF, deltaF, ob in zip(cons.dF, cons.deltaF,
                                  constraint_observables(space, p)):
            fd = fd_differential(ob, p)
            np.testing.assert_allclose(fd.dF, dF, atol=1e-6)
            np.testing.assert_allclose(fd.deltaF, deltaF, atol=1e-10)

    @pytest.mark.parametrize("space", SPACES)
    def test_dirac_matrix_blocks(self, space, rng):
        p = rand_point(space, rng)
        d = space.dirac_matrix(p)
        n = len(space.algebra.plus_indices)
        np.testing.assert_allclose(d[:n, :n], 0, atol=1e-12)
        np.testing.assert_allclose(d[:n, n:], np.eye(n), atol=1e-12)
        np.testing.assert_allclose(d + d.T, 0, atol=1e-12)

    # SPACE_GENERIC's cocycle does not exchange, so c(T^i, T^j) enters Omega
    @pytest.mark.parametrize("space", SPACES + [SPACE_GENERIC])
    def test_dirac_matrix_equals_constraint_brackets(self, space, rng):
        # independent evaluation: the brackets of the frame 1-forms
        p = rand_point(space, rng)
        cons = space.constraint_differentials(p)
        k = space.poisson_from_diff(cons[:, None], cons, p)
        np.testing.assert_allclose(k, space.dirac_matrix(p), atol=1e-12)
        # and the explicit Omega formula, one bracket per frame pair
        a, tm = space.algebra, space.frame()[1]
        n = len(tm)
        cginv = space.C.value(p.g.inv())
        omega = np.array([[-np.vdot(cginv + p.eta, a.bracket(ti, tj))
                           - space.c2.eval(ti, tj) for tj in tm]
                          for ti in tm])
        np.testing.assert_allclose(space.dirac_matrix(p)[n:, n:], omega,
                                   atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_closed_form_inverse(self, space, rng):
        p = rand_point(space, rng)
        d = space.dirac_matrix(p)
        np.testing.assert_allclose(d @ dirac_matrix_inverse(d),
                                   np.eye(d.shape[0]), atol=1e-12)


class TestDiracBracket:
    @pytest.mark.parametrize("space", SPACES + [SPACE_GENERIC])
    def test_closed_form_matches_generic_oracle(self, space, rng):
        # the closed form holds for any cocycle
        fiber = make_fiber(space, rng)
        for _ in range(5):
            p = space.random_fiber_point(fiber, rng)
            F = rand_obs(space.algebra, rng)
            G = rand_obs(space.algebra, rng)
            assert space.dirac_bracket(F, G, p, fiber) == pytest.approx(
                space.dirac_oracle(F, G, p), abs=1e-7)

    @pytest.mark.parametrize("space", SPACES)
    def test_reduced_form_matches_when_cocycle_exchanges(self, space, rng):
        assert space.c2.is_isotropic_exchanging()
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        F, G = rand_obs(space.algebra, rng), rand_obs(space.algebra, rng)
        assert space.dirac_bracket_reduced(F, G, p, fiber) == pytest.approx(
            space.dirac_bracket(F, G, p, fiber), abs=1e-10)

    def test_reduced_form_rejects_generic_cocycle(self, rng):
        space = PhaseSpace(SL2, GroupCocycle.coboundary(SL2, np.ones(6)))
        fiber = space.fiber(group.identity(SL2), np.zeros(6))
        p = space.random_fiber_point(fiber, rng)
        F, G = rand_obs(SL2, rng), rand_obs(SL2, rng)
        with pytest.raises(ValueError):
            space.dirac_bracket_reduced(F, G, p, fiber)

    @pytest.mark.parametrize("space", SPACES)
    def test_off_fiber_point_rejected(self, space, rng):
        fiber = make_fiber(space, rng)
        p = rand_point(space, rng)  # generic point, off the fiber
        F, G = rand_obs(space.algebra, rng), rand_obs(space.algebra, rng)
        with pytest.raises(ValueError):
            space.dirac_bracket(F, G, p, fiber)

    @pytest.mark.parametrize("space", SPACES)
    def test_nan_point_rejected(self, space, rng):
        # a NaN distance from the fiber is no distance below the tolerance
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        eta = p.eta.copy()
        eta[0, space.algebra.site_minus[0]] = np.nan
        bad = PhasePoint(p.g, eta)
        F, G = rand_obs(space.algebra, rng), rand_obs(space.algebra, rng)
        e = dynamics.EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        for call in (lambda: space.dirac_bracket(F, G, bad, fiber),
                     lambda: dynamics.legendre_map(space, e, bad, fiber),
                     lambda: dynamics.flow_fiber(
                         space, h, bad, fiber,
                         dynamics.IntegratorConfig(0.01, 2))):
            with pytest.raises(ValueError, match="off the fiber by nan"):
                call()

    @pytest.mark.parametrize("space", SPACES)
    def test_constraints_are_casimirs(self, space, rng):
        # the restricted bracket kills the constraint directions
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        F = rand_obs(space.algebra, rng)
        for ob in constraint_observables(space, p):
            assert space.dirac_bracket(F, ob, p, fiber) == pytest.approx(
                0, abs=1e-8)


class TestRestrictedField:
    """Brackets and the symmetry generator read one restricted field."""

    @pytest.mark.parametrize("space", SPACES)
    def test_reduced_minus_full_is_cocycle_traces(self, space):
        rng = np.random.default_rng(41)
        fiber = make_fiber(space, rng)
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng)
            F, G = rand_obs(space.algebra, rng), rand_obs(space.algebra, rng)
            diff = (space.dirac_bracket_reduced(F, G, p, fiber)
                    - space.dirac_bracket(F, G, p, fiber))
            traces = space.cocycle_traces(space.differential(F, p),
                                          space.differential(G, p), p, fiber)
            assert abs(diff - traces) <= 1e-12
            # and they vanish: the paper's hypothesis holds on both doubles
            assert abs(traces) <= 1e-12

    def test_traces_carry_a_generic_cocycle(self):
        # without the hypothesis the traces are what the field misses
        space = SPACE_GENERIC
        rng = np.random.default_rng(42)
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        F, G = (space.momentum_fn(x) for x in rng.standard_normal((2, 6)))
        dF, dG = space.differential(F, p), space.differential(G, p)
        traces = space.cocycle_traces(dF, dG, p, fiber)
        assert abs(traces) > 1e-3
        assert space.dirac_bracket(F, G, p, fiber) == pytest.approx(
            space.pair(dF, space.restricted_field(dG, p, fiber)) - traces,
            abs=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_fiber_projector_matches_point_formula(self, space):
        # the fiber's Q against the factors of each point's own g-
        rng = np.random.default_rng(45)
        fiber = make_fiber(space, rng)
        q = fiber.projector
        assert np.abs(q @ q - q).max() <= 1e-12
        h = dynamics.hamiltonian_quadratic(
            space, dynamics.EnergyOperator.preset(space.algebra, "skewed"))
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng)
            for obs in (h, space.momentum_fn(rng.standard_normal(6))):
                d = space.differential(obs, p)
                for got, want in zip(space.restricted_field(d, p, fiber),
                                     restricted_field_at_point(space, d, p)):
                    assert (np.abs(got - want).max()
                            <= 1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("space", SPACES)
    def test_generator_matches_direct_formula(self, space):
        rng = np.random.default_rng(43)
        fiber = make_fiber(space, rng)
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng)
            x = rng.standard_normal(6)
            xi, rho = dynamics.dirac_field(space,
                                           space.momentum_fn(x), p, fiber)
            xi_o, rho_o = fiber_generator_direct(space, x, p)
            np.testing.assert_allclose(xi, xi_o, rtol=0, atol=1e-13)
            np.testing.assert_allclose(rho, rho_o, rtol=0, atol=1e-13)

    def test_non_exchanging_cocycle_rejected(self):
        space = SPACE_GENERIC
        assert not space.exchanging
        rng = np.random.default_rng(44)
        fiber = space.fiber(group.identity(SL2), np.zeros(6))
        p = space.random_fiber_point(fiber, rng)
        with pytest.raises(ValueError, match="exchange"):
            dynamics.dirac_field(space,
                                 space.momentum_fn(np.ones(6)), p, fiber)
        with pytest.raises(ValueError, match="exchange"):
            space.group_action_d(group.random_point(SL2, rng), p, fiber)


class TestMomentum:
    @pytest.mark.parametrize("space", SPACES)
    def test_value_matches_coadjoint_transport(self, space, rng):
        p = rand_point(space, rng)
        x = rng.standard_normal(6)
        j = space.momentum_fn(x, 0.25)
        assert j.value(p) == pytest.approx(
            np.vdot(p.eta, group.adjoint(p.g.inv(), x))
            + np.vdot(space.C.value(p.g), x) + 0.25, abs=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_analytic_differential_vs_fd(self, space, rng):
        p = rand_point(space, rng)
        x = rng.standard_normal(6)
        j = space.momentum_fn(x)
        d = j.analytic_differential(p)
        fd = fd_differential(j, p)
        np.testing.assert_allclose(d.dF, fd.dF, atol=1e-6)
        np.testing.assert_allclose(d.deltaF, fd.deltaF, atol=1e-6)

    @pytest.mark.parametrize("space", SPACES)
    def test_closure_on_admissible_fiber(self, space, rng):
        fiber = make_fiber(space, rng)
        assert fiber.is_character and fiber.in_kernel
        a = space.algebra
        for _ in range(5):
            p = space.random_fiber_point(fiber, rng)
            x, y = rng.standard_normal((2, 6))
            lhs = space.dirac_bracket(space.momentum_fn(x),
                                      space.momentum_fn(y), p, fiber)
            target = space.momentum_fn(a.bracket(x, y),
                                       a_ext=space.c2.eval(x, y))
            assert lhs == pytest.approx(target.value(p), abs=1e-8)

    def test_closure_fails_off_character(self, rng):
        # negative control: eta- with weight on a non-character direction
        space = SPACE_SL2
        em = np.zeros(6)
        em[4] = 0.8
        fiber = space.fiber(group.identity(SL2), em)
        assert not fiber.is_character
        p = space.random_fiber_point(fiber, rng)
        x, y = rng.standard_normal((2, 6))
        lhs = space.dirac_bracket(space.momentum_fn(x),
                                  space.momentum_fn(y), p, fiber)
        target = space.momentum_fn(SL2.bracket(x, y),
                                   a_ext=space.c2.eval(x, y))
        assert abs(lhs - target.value(p)) > 1e-3

    @pytest.mark.parametrize("space", SPACES)
    def test_full_space_anomaly(self, space, rng):
        # {j_x, j_y}_c - j_[x,y] = <C(g), [x,y]> on the unconstrained space
        a = space.algebra
        for _ in range(5):
            p = rand_point(space, rng)
            x, y = rng.standard_normal((2, 6))
            full = space.poisson_c(space.momentum_fn(x),
                                   space.momentum_fn(y), p)
            jbr = space.momentum_fn(a.bracket(x, y),
                                    a_ext=space.c2.eval(x, y)).value(p)
            anomaly = space.C.value(p.g) @ a.bracket(x, y)
            assert full - jbr == pytest.approx(anomaly, abs=1e-8)

    @pytest.mark.parametrize("space", SPACES)
    def test_momentum_ext_second_slot(self, space, rng):
        p = rand_point(space, rng)
        mu, s = space.momentum_ext(p)
        assert s == 1.0
        np.testing.assert_allclose(
            mu, space.momentum_left(p) + space.C.value(p.g), atol=1e-12)


class TestGroupAction:
    @pytest.mark.parametrize("space", SPACES)
    def test_identity(self, space, rng):
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        q = space.group_action_d(group.identity(space.algebra), p, fiber)
        np.testing.assert_allclose(q.g.matrix, p.g.matrix, atol=1e-12)
        np.testing.assert_allclose(q.eta, p.eta, atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_compatibility(self, space, rng):
        fiber = make_fiber(space, rng)
        for _ in range(5):
            p = space.random_fiber_point(fiber, rng)
            h1 = group.random_point(space.algebra, rng, 0.3)
            h2 = group.random_point(space.algebra, rng, 0.3)
            q12 = space.group_action_d(h1.mul(h2), p, fiber)
            q21 = space.group_action_d(
                h1, space.group_action_d(h2, p, fiber), fiber)
            np.testing.assert_allclose(q12.g.matrix, q21.g.matrix, atol=1e-8)
            np.testing.assert_allclose(q12.eta, q21.eta, atol=1e-8)

    @pytest.mark.parametrize("space", SPACES)
    def test_preserves_fiber(self, space, rng):
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        h = group.random_point(space.algebra, rng, 0.5)
        q = space.group_action_d(h, p, fiber)
        assert space.on_fiber_distance(q, fiber) < 1e-9

    @pytest.mark.parametrize("space", SPACES)
    def test_generator_matches_fd(self, space, rng):
        fiber = make_fiber(space, rng)
        a = space.algebra
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng)
            x = rng.standard_normal(6)
            h = 1e-5
            pp = space.group_action_d(group.exp(a, x, h), p, fiber)
            pm = space.group_action_d(group.exp(a, x, -h), p, fiber)
            ginv = np.linalg.inv(p.g.matrix)
            xi_fd = a.mat_to_vec(ginv @ (pp.g.matrix - pm.g.matrix) / (2 * h))
            rho_fd = (pp.eta - pm.eta) / (2 * h)
            xi, rho = dynamics.dirac_field(space,
                                           space.momentum_fn(x), p, fiber)
            np.testing.assert_allclose(xi_fd, xi, atol=1e-5)
            np.testing.assert_allclose(rho_fd, rho, atol=1e-5)

    @pytest.mark.parametrize("space", SPACES)
    def test_momentum_equivariance(self, space, rng):
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        h = group.random_point(space.algebra, rng, 0.4)
        q = space.group_action_d(h, p, fiber)
        mu_p, _ = space.momentum_ext(p)
        mu_q, _ = space.momentum_ext(q)
        pred = group.coadjoint_star(h.inv(), mu_p) + space.C.value(h)
        np.testing.assert_allclose(mu_q, pred, atol=1e-8)

    @pytest.mark.parametrize("space", SPACES)
    def test_generator_tangent_to_fiber(self, space, rng):
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng)
        x = rng.standard_normal(6)
        xi, rho = dynamics.dirac_field(space, space.momentum_fn(x), p, fiber)
        # fiber slot never moves the minus component of eta
        np.testing.assert_allclose(
            space.algebra.project(rho, "minus"), 0, atol=1e-12)

    def test_non_character_fiber_rejected(self, rng):
        space = SPACE_SL2
        em = np.zeros(6)
        em[4] = 0.8
        fiber = space.fiber(group.identity(SL2), em)
        p = space.random_fiber_point(fiber, rng)
        with pytest.raises(ValueError):
            space.group_action_d(group.random_point(SL2, rng), p, fiber)


class TestPointStacks:
    """K fiber points as one stack: drawn in the order of K single draws,
    with per-point values and one fiber distance."""

    @pytest.mark.parametrize("space", SPACES)
    def test_stack_matches_single_points(self, space, rng):
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, np.random.default_rng(3), 0.3,
                                     batch=4)
        assert p.eta.shape == (4,) + space.algebra.shape
        draws = np.random.default_rng(3)
        singles = [space.random_fiber_point(fiber, draws, 0.3)
                   for _ in range(4)]
        j = space.momentum_fn(rng.standard_normal(space.algebra.shape), 0.2)
        values = j.value(p)
        for i, one in enumerate(singles):
            np.testing.assert_array_equal(p.g.matrix[i], one.g.matrix)
            np.testing.assert_array_equal(p.eta[i], one.eta)
            assert values[i] == pytest.approx(j.value(one), abs=1e-14)
        # the distance of a stack is its largest, and NaN if any is NaN
        shifted = p.eta.copy()
        shifted[2] += 1e-3 * np.eye(6)[space.algebra.minus_indices[0]]
        off = PhasePoint(p.g, shifted)
        want = [space.on_fiber_distance(PhasePoint(
            group.GroupPoint(space.algebra, off.g.matrix[i]), off.eta[i]),
            fiber) for i in range(4)]
        assert space.on_fiber_distance(off, fiber) == max(want) > 1e-4
        shifted[0, 0, space.algebra.site_minus[0]] = np.nan
        assert np.isnan(space.on_fiber_distance(off, fiber))

    @pytest.mark.parametrize("space", SPACES)
    def test_indexing_indexes_g_and_eta(self, space, rng):
        fiber = make_fiber(space, rng)
        p = space.random_fiber_point(fiber, rng, 0.3, batch=4)
        for idx in (-1, slice(1, 3), np.array([0, 2, 2])):
            q = p[idx]
            np.testing.assert_array_equal(q.g.matrix, p.g.matrix[idx])
            np.testing.assert_array_equal(q.eta, p.eta[idx])
            assert q.algebra is space.algebra
        # one index gives one point, a slice a sub-stack
        assert p[-1].eta.shape == space.algebra.shape
        assert p[1:3].g.matrix.shape[0] == 2


def per_point_cases():
    """(space, fiber): sl2c-iwasawa with a coboundary, so3-cotangent with
    the zero cocycle, and an N = 8 loop with its lattice cocycle."""
    so3 = PhaseSpace(SO3)
    loop8 = loop.build_loop_double(SL2, 8)
    lattice = PhaseSpace(loop8, loop.loop_group_cocycle(loop8, 0.6))
    b1 = np.eye(6)[3]
    return [(SPACE_SL2, make_fiber(SPACE_SL2, None)),
            (so3, so3.fiber(group.exp(SO3, 0.4 * MU0_SO3), 0.5 * MU0_SO3)),
            (lattice, lattice.fiber(
                group.exp(loop8, 0.3 * loop.constant_loop(loop8, b1)),
                loop.constant_loop(loop8, 0.5 * b1) / 8))]


class TestPerPointValues:
    """On a stack of points every value is one per point: what the call
    gives on each point on its own."""

    @pytest.mark.parametrize("space,fiber", per_point_cases(),
                             ids=["sl2c-coboundary", "so3-zero", "loop-N8"])
    def test_stack_matches_single_points(self, space, fiber, rng):
        a, k = space.algebra, 3
        p = space.random_fiber_point(fiber, rng, 0.3, batch=k)
        x, y, xi1, rho1, xi2, rho2 = rng.standard_normal((6, k) + a.shape)
        F, G = space.momentum_fn(x), space.momentum_fn(y, 0.2)
        dF, dG = space.differential(F, p), space.differential(G, p)
        stacked = {
            "eval": space.c2.eval(x, y),
            "omega_c": space.omega_c(p, (xi1, rho1), (xi2, rho2)),
            "cocycle_traces": space.cocycle_traces(dF, dG, p, fiber),
            "dirac_bracket": space.dirac_bracket(F, G, p, fiber),
            "dirac_bracket_reduced": space.dirac_bracket_reduced(
                F, G, p, fiber),
            "dirac_oracle": space.dirac_oracle(F, G, p)}
        for i in range(k):
            q = PhasePoint(group.GroupPoint(a, p.g.matrix[i]), p.eta[i])
            Fi, Gi = space.momentum_fn(x[i]), space.momentum_fn(y[i], 0.2)
            dFi, dGi = space.differential(Fi, q), space.differential(Gi, q)
            single = {
                "eval": space.c2.eval(x[i], y[i]),
                "omega_c": space.omega_c(q, (xi1[i], rho1[i]),
                                         (xi2[i], rho2[i])),
                "cocycle_traces": space.cocycle_traces(dFi, dGi, q, fiber),
                "dirac_bracket": space.dirac_bracket(Fi, Gi, q, fiber),
                "dirac_bracket_reduced": space.dirac_bracket_reduced(
                    Fi, Gi, q, fiber),
                "dirac_oracle": space.dirac_oracle(Fi, Gi, q)}
            for name, value in single.items():
                assert np.ndim(value) == 0, name
                assert stacked[name].shape == (k,), name
                assert stacked[name][i] == pytest.approx(
                    value, rel=1e-12, abs=1e-12), name

    @pytest.mark.parametrize("space,fiber", per_point_cases(),
                             ids=["sl2c-coboundary", "so3-zero", "loop-N8"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_dirac_matrix_one_per_point(self, space, fiber, k, rng):
        # K = 3 is the number of constraint pairs on a base double, where a
        # broadcast of the frame against the points would not raise
        p = space.random_fiber_point(fiber, rng, 0.3, batch=k)
        d = space.dirac_matrix(p)
        n = len(space.algebra.plus_indices)
        assert d.shape == (k, 2 * n, 2 * n)
        for i in range(k):
            np.testing.assert_allclose(d[i], space.dirac_matrix(p[i]),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("space,fiber", per_point_cases(),
                             ids=["sl2c-coboundary", "so3-zero", "loop-N8"])
    def test_pairs_at_one_point_match_single_pairs(self, space, fiber, rng):
        # as many pairs as constraints: the oracle's constraint rows must
        # not line up with the pairs' axis
        a = space.algebra
        p = space.random_fiber_point(fiber, rng, 0.3)
        n = 2 * len(space.frame()[0])
        x, y = rng.standard_normal((2, n) + a.shape)
        F, G = space.momentum_fn(x), space.momentum_fn(y)
        got = (space.dirac_bracket(F, G, p, fiber),
               space.dirac_oracle(F, G, p))
        for j in range(n):
            Fj, Gj = space.momentum_fn(x[j]), space.momentum_fn(y[j])
            want = (space.dirac_bracket(Fj, Gj, p, fiber),
                    space.dirac_oracle(Fj, Gj, p))
            for g, w in zip(got, want):
                assert g[j] == pytest.approx(w, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(got[0], got[1], atol=1e-7)


class TestRuntimeContracts:
    @pytest.mark.parametrize("space", SPACES)
    def test_fiber_rejects_plus_support(self, space):
        em = np.zeros(6)
        em[space.algebra.plus_indices[0]] = 0.5
        with pytest.raises(ValueError,
                           match="support outside the dual of g-"):
            space.fiber(group.identity(space.algebra), em)
