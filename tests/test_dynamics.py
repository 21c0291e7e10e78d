import numpy as np
import pytest
from scipy.integrate import solve_ivp

from liedouble import cli, dynamics, group, loop
from liedouble.algebra import get_algebra
from liedouble.dynamics import EnergyOperator, IntegratorConfig
from liedouble.group import FactorizationError, GroupCocycle
from liedouble.phase import Differential, Observable, PhasePoint, PhaseSpace
from oracles import (ambient_flow_fiber, collectivity_per_point, dense,
                     eigenspace_basis, fd_differential, fd_observable, flat,
                     legendre_map_blocks, log_coords, stack_points)

SL2 = get_algebra("sl2c-iwasawa")
SO3 = get_algebra("so3-cotangent")

MU0_SL2 = np.zeros(6)
MU0_SL2[3] = 0.9
SPACE_SL2 = PhaseSpace(SL2, GroupCocycle.coboundary(SL2, MU0_SL2))

MU0_SO3 = SO3.project(np.array([0., 0, 0, 0.8, -0.3, 0.5]), "minus")
SPACE_SO3 = PhaseSpace(SO3, GroupCocycle.coboundary(SO3, MU0_SO3))

SPACES = [SPACE_SL2, SPACE_SO3]

LOOP = loop.build_loop_double(SL2, 8)
SPACE_LOOP = PhaseSpace(LOOP, loop.loop_group_cocycle(LOOP, 0.6))


def make_fiber(space, rng):
    """An admissible fiber: eta- a character of g-, g- in C's kernel."""
    a = space.algebra
    if a is LOOP:
        gm = group.exp(a, 0.3 * loop.constant_loop(a, np.eye(6)[3]))
        em = loop.constant_loop(a, 0.5 * np.eye(6)[3]) / 8
    elif a is SL2:
        gm = group.exp(a, 0.3 * np.eye(6)[3])
        em = np.zeros(6)
        em[3] = 0.7
    else:
        v = np.zeros(6)
        v[3:] = MU0_SO3[3:]
        gm = group.exp(a, 0.4 * v)
        em = a.project(rng.standard_normal(6) * 0.5, "minus")
    return space.fiber(gm, em)


class TestEnergyOperator:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("name", ["isotropic", "skewed"])
    def test_involution_and_symmetry_at_points(self, space, name, rng):
        e = EnergyOperator.preset(space.algebra, name)
        g = group.random_point(space.algebra, rng, 0.4)
        eg = e.at(g)
        np.testing.assert_allclose(dense(eg @ eg), np.eye(6), atol=1e-12)
        a = space.algebra
        for _ in range(5):
            x, y = rng.standard_normal((2, 6))
            assert a.pair(eg @ x, y) == pytest.approx(a.pair(x, eg @ y),
                                                      abs=1e-10)

    @pytest.mark.parametrize("space", SPACES)
    def test_blocks_symmetry(self, space, rng):
        a = space.algebra
        e = EnergyOperator.preset(a, "skewed")
        g = group.random_point(a, rng, 0.4)
        gg, bb = e.blocks_at(g)
        for _ in range(5):
            x = a.project(rng.standard_normal(6), "plus")
            y = a.project(rng.standard_normal(6), "plus")
            assert a.pair(gg @ x, y) == pytest.approx(a.pair(x, gg @ y),
                                                      abs=1e-10)
            assert a.pair(bb @ x, y) == pytest.approx(-a.pair(x, bb @ y),
                                                      abs=1e-10)

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_eigenspace_graphs(self, space, sign, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        g = group.random_point(space.algebra, rng, 0.4)
        eg = e.at(g)
        for row in eigenspace_basis(e, g, sign):
            np.testing.assert_allclose(np.matvec(eg, row), sign * row,
                                       atol=1e-10)

    @pytest.mark.parametrize("space", SPACES)
    def test_eigenspaces_transport_by_plus_factor(self, space, rng):
        # Ad_{g+} maps the eigenspaces at g+ to the eigenspaces at identity
        a = space.algebra
        e = EnergyOperator.preset(a, "skewed")
        gp = group.exp(a, a.project(0.4 * rng.standard_normal(6), "plus"))
        for sign in (1, -1):
            for row in eigenspace_basis(e, gp, sign):
                moved = group.adjoint(gp, row)
                np.testing.assert_allclose(np.matvec(e.matrix, moved),
                                           sign * moved,
                                           atol=1e-9)

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            EnergyOperator(SL2, 2.0 * np.eye(6))

    def test_rejects_site_stack(self):
        # one site's (d, d) matrix is the one layout, even on one site
        m = EnergyOperator.preset(SL2, "skewed").matrix[None]
        with pytest.raises(ValueError, match="one site's 6x6 matrix"):
            EnergyOperator(SL2, m)

    def test_rejects_non_finite_matrix(self):
        m = EnergyOperator.preset(SL2, "skewed").matrix.copy()
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="involution"):
            EnergyOperator(SL2, m)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            EnergyOperator.from_blocks(SL2, np.triu(np.ones((3, 3))))

    @pytest.mark.parametrize("block", ["s", "a"])
    def test_nan_block_is_not_symmetric(self, block):
        s, a = np.eye(3), np.zeros((3, 3))
        (s if block == "s" else a)[0, 1] = np.nan
        with pytest.raises(ValueError, match="symmetric / antisymmetric"):
            EnergyOperator.from_blocks(SL2, s, a)


class TestQuadraticHamiltonian:
    @pytest.mark.parametrize("space", SPACES)
    def test_analytic_differential_vs_fd(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        p = PhasePoint(group.random_point(space.algebra, rng, 0.4),
                       rng.standard_normal(6))
        d = h.analytic_differential(p)
        fd = fd_differential(h, p)
        np.testing.assert_allclose(d.dF, fd.dF, atol=1e-6)
        np.testing.assert_allclose(d.deltaF, fd.deltaF, atol=1e-8)

    @pytest.mark.parametrize("space", SPACES)
    def test_collective_in_extended_momentum(self, space, rng):
        # H depends on (g, eta) only through the extended momentum value
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        a = space.algebra
        p = PhasePoint(group.random_point(a, rng, 0.4),
                       rng.standard_normal(6))
        mu, _ = space.momentum_ext(p)
        direct = 0.5 * a.pair(a.psi_bar(mu), np.matvec(e.matrix,
                                                       a.psi_bar(mu)))
        assert h.value(p) == pytest.approx(direct, abs=1e-10)


class TestDiracField:
    @pytest.mark.parametrize("space", SPACES)
    def test_field_generates_restricted_bracket(self, space, rng):
        fiber = make_fiber(space, rng)
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng)
            xi, rho = dynamics.dirac_field(space, h, p, fiber)
            m = rng.standard_normal((6, 6))
            obs = fd_observable(lambda q: float(
                flat(log_coords(q.g)) @ m @ flat(q.eta)
                + np.vdot(q.eta, q.eta)))
            d = space.differential(obs, p)
            assert np.vdot(d.dF, xi) + np.vdot(d.deltaF, rho) == pytest.approx(
                space.dirac_bracket(obs, h, p, fiber), abs=1e-7)


class TestExchangingHypothesis:
    def test_restricted_flow_needs_exchanging_cocycle(self):
        space = PhaseSpace(SL2, GroupCocycle.coboundary(SL2, np.ones(6)))
        fiber = space.fiber(group.identity(SL2), np.zeros(6))
        p = space.random_fiber_point(fiber, np.random.default_rng(53))
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(SL2, "skewed"))
        with pytest.raises(ValueError, match="exchange"):
            dynamics.dirac_field(space, h, p, fiber)
        with pytest.raises(ValueError, match="exchange"):
            dynamics.flow_fiber(space, h, p, fiber, IntegratorConfig(0.01, 2))


class TestFiberFlowCost:
    """A fiber flow reads its fiber's dressed projector: the one
    factorization of a step is the drift diagnostic at its end point. Each
    new point's carrier and cocycle data are computed once."""

    @staticmethod
    def make_space(double):
        """A fresh cocycle maker, its phase space and a fiber's (g-, eta-)."""
        b1 = np.eye(6)[3]
        if double == "base":
            def cocycle():
                return GroupCocycle.coboundary(SL2, MU0_SL2)
            gm, em = group.exp(SL2, 0.3 * b1), 0.7 * b1
            alg = SL2
        else:
            alg = loop.build_loop_double(SL2, 8)

            def cocycle():
                return loop.loop_group_cocycle(alg, 0.6)
            gm = group.exp(alg, 0.3 * loop.constant_loop(alg, b1))
            em = loop.constant_loop(alg, 0.5 / 8 * b1)
        return cocycle, PhaseSpace(alg, cocycle()), gm, em

    @pytest.mark.parametrize("double", ["base", "loop"])
    def test_step_factorizes_once(self, double, monkeypatch):
        _, space, gm, em = self.make_space(double)
        a = space.algebra
        calls = {"factorizer": 0, "dressed_projector": 0, "ad_builds": 0}
        factorizer = a.factorizer
        dressed_projector = PhaseSpace.dressed_projector
        ad_matrix = group.GroupPoint.ad_matrix

        def counted_factorizer(m):
            calls["factorizer"] += 1
            return factorizer(m)

        def counted_projector(self, g_minus):
            calls["dressed_projector"] += 1
            return dressed_projector(self, g_minus)

        def counted_ad(self):
            calls["ad_builds"] += self._ad is None
            return ad_matrix(self)

        monkeypatch.setattr(a, "factorizer", counted_factorizer)
        monkeypatch.setattr(PhaseSpace, "dressed_projector", counted_projector)
        monkeypatch.setattr(group.GroupPoint, "ad_matrix", counted_ad)
        fiber = space.fiber(gm, em)
        assert calls["dressed_projector"] == 1
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(a, "isotropic"))
        p0 = space.random_fiber_point(fiber, np.random.default_rng(61), 0.3)
        for steps in (3, 6):
            # the flow's on-fiber check factorizes p0 and its first energy
            # evaluation builds Ad of p0; both happen here, before counting
            space.on_fiber_distance(p0, fiber)
            h.value(p0)
            calls.update(factorizer=0, ad_builds=0)
            tr = dynamics.flow_fiber(space, h, p0, fiber,
                                     IntegratorConfig(0.01, steps))
            # one factorization per flow, of the stacked end points, however
            # many steps; per step one adjoint per new stage point and one
            # for the end point, none of a g-
            assert calls == {"factorizer": 1, "dressed_projector": 1,
                             "ad_builds": 4 * steps}
            assert tr.extras["drift_gminus"].max() < 1e-10

    @pytest.mark.parametrize("double", ["base", "loop"])
    def test_flow_calls_no_numpy_linalg(self, double, monkeypatch):
        # inverses, factorizations and products are the group's closed
        # forms; numpy.linalg stays out of the step
        _, space, gm, em = self.make_space(double)
        fiber = space.fiber(gm, em)
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(space.algebra, "isotropic"))
        p0 = space.random_fiber_point(fiber, np.random.default_rng(62), 0.3)
        calls = []
        for name in ("inv", "qr", "solve", "det"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *args, _fn=fn, **kw:
                                calls.append(_fn.__name__) or _fn(*args, **kw))
        tr = dynamics.flow_fiber(space, h, p0, fiber, IntegratorConfig(0.01, 3))
        assert calls == [] and np.all(np.isfinite(tr.energies))

    @pytest.mark.parametrize("double", ["base", "loop"])
    def test_stages_are_dirac_fields(self, double, monkeypatch):
        # the flow's one field path: each of the four RKMK4 stages is a
        # dirac_field, which the benchmark's tracer wraps by this name
        _, space, gm, em = self.make_space(double)
        fiber = space.fiber(gm, em)
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(space.algebra, "isotropic"))
        p0 = space.random_fiber_point(fiber, np.random.default_rng(63), 0.3)
        seen = []
        field = dynamics.dirac_field
        monkeypatch.setattr(dynamics, "dirac_field", lambda *args: (
            seen.append(args[2]) or field(*args)))
        steps = 3
        tr = dynamics.flow_fiber(space, h, p0, fiber,
                                 IntegratorConfig(0.01, steps))
        assert len(seen) == 4 * steps
        # the first stage of each step sits at the step's start point
        starts = tr.points[:-1]
        np.testing.assert_array_equal([q.g.matrix for q in seen[::4]],
                                      starts.g.matrix)
        np.testing.assert_array_equal([q.eta for q in seen[::4]], starts.eta)

    @pytest.mark.parametrize("double", ["base", "loop"])
    def test_cocycle_data_once_per_point(self, double, monkeypatch):
        _, space, gm, em = self.make_space(double)
        fiber = space.fiber(gm, em)
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(space.algebra, "isotropic"))
        p0 = space.random_fiber_point(fiber, np.random.default_rng(61), 0.3)
        space.on_fiber_distance(p0, fiber)
        h.value(p0)
        calls = dict.fromkeys(["value", "differential_inv", "d_s",
                               "coadjoint_star"], 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for owner, name in [(GroupCocycle, "value"),
                            (GroupCocycle, "differential_inv"),
                            (loop, "d_s"), (group, "coadjoint_star")]:
            monkeypatch.setattr(owner, name,
                                counted(name, getattr(owner, name)))
        steps = 3
        dynamics.flow_fiber(space, h, p0, fiber, IntegratorConfig(0.01, steps))
        # the coboundary's C(g^{-1}) = mu0 - Ad*_g mu0 is one coadjoint_star;
        # the lattice q = (d_s h) h^{-1} is one d_s beyond the one through
        # which each differential_inv pulls its covector back
        builds = (calls["coadjoint_star"] if double == "base"
                  else calls["d_s"] - calls["differential_inv"])
        # per step, one value and one build at each new point: three stage
        # points and the end point, whose carrier the next step reads
        assert calls["value"] == 4 * steps
        assert calls["differential_inv"] == 4 * steps
        assert builds == 4 * steps

    @pytest.mark.parametrize("double", ["base", "loop"])
    def test_memos_serve_their_own_point(self, double):
        cocycle, space, gm, em = self.make_space(double)
        a = space.algebra
        fiber = space.fiber(gm, em)
        rng = np.random.default_rng(62)
        p1, p2 = (space.random_fiber_point(fiber, rng, 0.3) for _ in "12")
        # neighbours share g or eta, and points built and dropped on the
        # way may reuse a dropped point's memory
        points = [p1, PhasePoint(p1.g, p2.eta), p2, PhasePoint(p2.g, p1.eta)]
        points = points * 2 + points[::-1] + [None] * 4
        e_op = EnergyOperator.preset(a, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e_op)
        delta = rng.standard_normal(a.shape)
        for p in points:
            p = p or space.random_fiber_point(fiber, rng, 0.3)
            fresh_c = cocycle()
            fresh_h = dynamics.hamiltonian_quadratic(PhaseSpace(a, fresh_c),
                                                     e_op)
            d, d_ref = (obs.analytic_differential(p) for obs in (h, fresh_h))
            assert h.value(p) == fresh_h.value(p)
            np.testing.assert_array_equal(d.dF, d_ref.dF)
            np.testing.assert_array_equal(d.deltaF, d_ref.deltaF)
            np.testing.assert_array_equal(space.C.value(p.g.inv()),
                                          fresh_c.value(p.g.inv()))
            np.testing.assert_array_equal(
                space.C.differential_inv(p.g, delta),
                fresh_c.differential_inv(p.g, delta))


class TestRigidBody:
    def test_left_momentum_follows_euler_equations(self):
        # zero cocycle, fiber over (e, 0) of the cotangent double: the
        # spatial momentum obeys dM/dt = (S^{-1} M) x M for diagonal S
        space = PhaseSpace(SO3)
        s = np.diag([1.0, 2.0, 3.0])
        e = EnergyOperator.from_blocks(SO3, s)
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = space.fiber(group.identity(SO3), np.zeros(6))
        m0 = np.array([0.4, -0.7, 0.9])
        eta0 = np.zeros(6)
        eta0[:3] = m0
        p0 = space.fiber_point(fiber, group.identity(SO3), eta0)
        traj = dynamics.flow_fiber(space, h, p0, fiber,
                                   IntegratorConfig(0.01, 200))
        # eta itself is constant in this configuration
        assert max(np.abs(q.eta - eta0).max() for q in traj.points) < 1e-12

        def euler(_, mm):
            return np.cross(np.linalg.inv(s) @ mm, mm)

        sol = solve_ivp(euler, [0, 2.0], m0, t_eval=traj.times,
                        rtol=1e-11, atol=1e-13)
        m_traj = np.array([space.momentum_left(q)[0, :3]
                           for q in traj.points])
        assert np.abs(m_traj - sol.y.T).max() < 1e-5


class TestFlows:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("method", ["rkmk4", "ambient-rk4"])
    def test_energy_drift_fourth_order_on_fiber(self, space, method, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fiber(space, rng)
        p0 = space.random_fiber_point(fiber, rng, 0.4)
        steps = (0.02, 0.01, 0.005)
        flow = (dynamics.flow_fiber if method == "rkmk4"
                else ambient_flow_fiber)
        drifts = []
        for dt in steps:
            tr = flow(space, h, p0, fiber,
                      IntegratorConfig(dt, round(1.0 / dt)))
            drifts.append(np.abs(tr.energies - tr.energies[0]).max())
        slope = np.polyfit(np.log(steps), np.log(drifts), 1)[0]
        assert slope >= 3.5

    @pytest.mark.parametrize("space", SPACES)
    def test_energy_drift_fourth_order_full_space(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        p0 = PhasePoint(group.random_point(space.algebra, rng, 0.4),
                        0.5 * rng.standard_normal(6))
        steps = (0.02, 0.01, 0.005)
        drifts = []
        for dt in steps:
            tr = dynamics.flow_full(space, h, p0,
                                    IntegratorConfig(dt, round(1.0 / dt)))
            drifts.append(np.abs(tr.energies - tr.energies[0]).max())
        slope = np.polyfit(np.log(steps), np.log(drifts), 1)[0]
        assert slope >= 3.5

    @pytest.mark.parametrize("space", SPACES)
    def test_integrator_routes_agree(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fiber(space, rng)
        p0 = space.random_fiber_point(fiber, rng, 0.4)
        t1 = dynamics.flow_fiber(space, h, p0, fiber,
                                 IntegratorConfig(0.01, 50))
        t2 = ambient_flow_fiber(space, h, p0, fiber,
                                IntegratorConfig(0.01, 50))
        np.testing.assert_allclose(t1.points[-1].eta, t2.points[-1].eta,
                                   atol=1e-8)
        np.testing.assert_allclose(t1.points[-1].g.matrix,
                                   t2.points[-1].g.matrix, atol=1e-8)

    @pytest.mark.parametrize("space", SPACES)
    def test_fiber_stays_frozen(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fiber(space, rng)
        p0 = space.random_fiber_point(fiber, rng, 0.4)
        tr = dynamics.flow_fiber(space, h, p0, fiber,
                                 IntegratorConfig(0.01, 100))
        assert tr.extras["drift_gminus"].max() < 1e-10
        assert tr.extras["drift_etaminus"].max() < 1e-10

    def test_non_factorizable_point_raises(self, rng):
        # the differential turns NaN after the second step; the flow stops
        # at the third, whose energy is not finite, and reads no NaN drifts
        space = SPACE_SL2
        h = dynamics.hamiltonian_quadratic(
            space, EnergyOperator.preset(SL2, "skewed"))
        fiber = make_fiber(space, rng)
        calls = []

        def diff(p):
            calls.append(p)
            d = h.analytic_differential(p)
            if len(calls) <= 8:
                return d
            return Differential(np.full_like(d.dF, np.nan),
                                np.full_like(d.deltaF, np.nan))

        obs = Observable(h.value, diff=diff, name="breaks")
        with np.errstate(all="ignore"), pytest.raises(FactorizationError):
            dynamics.flow_fiber(space, obs, space.random_fiber_point(
                fiber, rng, 0.3), fiber, IntegratorConfig(0.01, 4))
        assert len(calls) == 12

    @pytest.mark.parametrize("space", SPACES)
    def test_collectivity_residuals(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fiber(space, rng)
        p0 = space.random_fiber_point(fiber, rng, 0.4)
        tr = dynamics.flow_fiber(space, h, p0, fiber,
                                 IntegratorConfig(0.01, 100))
        res = dynamics.collectivity_check(space, e, tr, fiber)
        assert res["field"] < 1e-10
        assert res["orbit"] < 1e-2       # second differences at dt = 0.01
        assert res["reconstruction"] < 1e-2

    @pytest.mark.parametrize("key,patch", [
        ("field", "restricted_field"), ("reconstruction", "group_action_d")])
    def test_collectivity_keeps_nan_of_second_operand(self, key, patch, rng,
                                                      monkeypatch):
        # NaN only in the second of the two maxima: rho, or g's matrix
        space = SPACE_SL2
        e = EnergyOperator.preset(space.algebra, "skewed")
        fiber = make_fiber(space, rng)
        tr = dynamics.flow_fiber(
            space, dynamics.hamiltonian_quadratic(space, e),
            space.random_fiber_point(fiber, rng, 0.1), fiber,
            IntegratorConfig(0.01, 20))
        real = getattr(PhaseSpace, patch)

        def with_nan(self, *args):
            out = real(self, *args)
            if patch == "restricted_field":
                rho = out[1].copy()
                rho[1] = np.nan
                return out[0], rho
            g = out.g.matrix.copy()
            g[1, 0, 0, 0] = np.nan
            return PhasePoint(group.GroupPoint(out.g.algebra, g), out.eta)

        monkeypatch.setattr(PhaseSpace, patch, with_nan)
        res = dynamics.collectivity_check(space, e, tr, fiber)
        assert np.isnan(res[key])

    @pytest.mark.parametrize("space", SPACES + [SPACE_LOOP])
    def test_collectivity_matches_per_point_oracle(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fiber(space, rng)
        p0 = space.random_fiber_point(fiber, rng, 0.1)
        tr = dynamics.flow_fiber(space, h, p0, fiber,
                                 IntegratorConfig(0.01, 20))
        res = dynamics.collectivity_check(space, e, tr, fiber)
        want = collectivity_per_point(space, e, tr, fiber)
        # the orbit residual divides the momenta's round-off by 2 dt
        for key, tol in (("field", 1e-14), ("orbit", 1e-12),
                         ("reconstruction", 1e-14)):
            assert abs(res[key] - want[key]) <= tol

    @pytest.mark.parametrize("space", SPACES)
    def test_second_order_form_minus_sign(self, space, rng):
        # d/dt (E_g(g^{-1}gdot) + psi_bar C(g^{-1}))
        #     = -[g^{-1}gdot, psi_bar C(g^{-1})]
        a = space.algebra
        e = EnergyOperator.preset(a, "skewed")
        h = dynamics.hamiltonian_quadratic(space, e)
        p0 = PhasePoint(group.random_point(a, rng, 0.4),
                        0.5 * rng.standard_normal(6))
        dt = 1e-3
        tr = dynamics.flow_full(space, h, p0, IntegratorConfig(dt, 4))

        def momentum_like(q):
            gd = space.differential(h, q).deltaF
            cinv = a.psi_bar(space.C.value(q.g.inv()))
            return np.matvec(e.at(q.g), gd) + cinv, gd, cinv

        q0, _, _ = momentum_like(tr.points[1])
        q2, _, _ = momentum_like(tr.points[3])
        lhs = (q2 - q0) / (2 * dt)
        _, gd, cinv = momentum_like(tr.points[2])
        rhs = -a.bracket(gd, cinv)
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() < 1e-4 * scale
        # the opposite sign fails by a margin
        assert np.abs(lhs + rhs).max() > 1e-2


class TestLegendre:
    @pytest.mark.parametrize("space", SPACES + [SPACE_LOOP])
    def test_matches_flow_velocity(self, space):
        # on admissible fibers the flow's g+ velocity solves the blocks'
        # Legendre equation
        rng = np.random.default_rng(4301)
        e = EnergyOperator.preset(space.algebra, "skewed")
        fiber = make_fiber(space, rng)
        assert fiber.is_character and fiber.in_kernel
        for _ in range(3):
            p = space.random_fiber_point(fiber, rng, 0.3)
            np.testing.assert_allclose(
                dynamics.legendre_map(space, e, p, fiber),
                legendre_map_blocks(space, e, p, fiber), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g_minus,eta_minus", [
        (0.3 * np.eye(6)[3], 0.8 * np.eye(6)[4]),  # eta- not a character
        (0.3 * np.eye(6)[4], 0.7 * np.eye(6)[3]),  # g- not in C's kernel
    ])
    def test_is_flow_velocity_off_admissible_fibers(self, g_minus,
                                                    eta_minus):
        space = SPACE_SL2
        e = EnergyOperator.preset(SL2, "skewed")
        fiber = space.fiber(group.exp(SL2, g_minus), eta_minus)
        assert not (fiber.is_character and fiber.in_kernel)
        p = space.random_fiber_point(fiber, np.random.default_rng(4302), 0.3)
        gdot = dynamics.legendre_map(space, e, p, fiber)
        # the g+ velocity of the restricted flow, g+^{-1} d/dt g+ = Ad_{g-} xi
        xi, _ = dynamics.dirac_field(
            space, dynamics.hamiltonian_quadratic(space, e), p, fiber)
        np.testing.assert_allclose(gdot, group.adjoint(fiber.g_minus, xi),
                                   rtol=0, atol=1e-12)
        # which the blocks' Legendre equation no longer gives
        assert np.abs(gdot - legendre_map_blocks(space, e, p, fiber)).max() \
            > 1e-2
        q = dynamics.legendre_inverse(space, e, p.g_plus(), gdot, fiber)
        assert np.abs(q.eta - p.eta).max() > 1e-2

    @pytest.mark.parametrize("space", SPACES + [SPACE_LOOP])
    def test_stack_is_per_point(self, space, rng):
        # K points as one stack: the map and its inverse give the K
        # single-point results
        e = EnergyOperator.preset(space.algebra, "skewed")
        fiber = make_fiber(space, rng)
        singles = [space.random_fiber_point(fiber, rng, 0.3)
                   for _ in range(3)]
        p = stack_points(singles)
        gdot = dynamics.legendre_map(space, e, p, fiber)
        q = dynamics.legendre_inverse(space, e, p.g_plus(), gdot, fiber)
        for i, one in enumerate(singles):
            np.testing.assert_array_equal(p.g.matrix[i], one.g.matrix)
            np.testing.assert_array_equal(p.eta[i], one.eta)
            gd = dynamics.legendre_map(space, e, one, fiber)
            np.testing.assert_allclose(gdot[i], gd, rtol=0, atol=1e-14)
            qi = dynamics.legendre_inverse(space, e, one.g_plus(), gd, fiber)
            np.testing.assert_allclose(q.eta[i], qi.eta, rtol=0, atol=1e-14)
            np.testing.assert_allclose(q.g.matrix[i], qi.g.matrix, rtol=0,
                                       atol=1e-14)

    @pytest.mark.parametrize("space", SPACES)
    def test_roundtrip(self, space, rng):
        e = EnergyOperator.preset(space.algebra, "skewed")
        fiber = make_fiber(space, rng)
        for _ in range(5):
            p = space.random_fiber_point(fiber, rng)
            gdot = dynamics.legendre_map(space, e, p, fiber)
            q = dynamics.legendre_inverse(space, e, p.g_plus(), gdot, fiber)
            np.testing.assert_allclose(q.eta, p.eta, atol=1e-9)
            np.testing.assert_allclose(q.g.matrix, p.g.matrix, atol=1e-9)


class TestTrajectoryCsv:
    def test_roundtrippable_and_headers(self, tmp_path, rng):
        space = SPACE_SO3
        e = EnergyOperator.preset(SO3, "isotropic")
        h = dynamics.hamiltonian_quadratic(space, e)
        fiber = make_fiber(space, rng)
        p0 = space.random_fiber_point(fiber, rng, 0.3)
        tr = dynamics.flow_fiber(space, h, p0, fiber,
                                 IntegratorConfig(0.01, 5))
        # the CLI's writer of trajectory.csv
        path = tmp_path / "traj.csv"
        cli._write_trajectory(path, tr)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 7
        header = rows[0].split(",")
        assert header[0] == "t" and "energy" in header
        # repr round-trip: energies recoverable exactly
        k = header.index("energy")
        vals = [float(r.split(",")[k]) for r in rows[1:]]
        np.testing.assert_array_equal(vals, tr.energies)
