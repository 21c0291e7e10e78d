import numpy as np
import pytest
import scipy.linalg

from liedouble import group, loop
from liedouble.algebra import (TwoCocycle, _cosh_sinhc, algebra_from_matrices,
                               get_algebra)
from liedouble.group import GroupCocycle, GroupPoint
from oracles import (coboundary_differential_inv, cosh_sinhc_series,
                     dense, flat, is_identity, qr_factorize, sandwich_kron,
                     solve_factorize)


SO3 = get_algebra("so3-cotangent")
SL2 = get_algebra("sl2c-iwasawa")


def basis(a, i):
    v = np.zeros(a.dim)
    v[i] = 1.0
    return v


def fd_step(x):
    return 1e-5 * (1.0 + float(np.linalg.norm(x)))


class TestExp:
    def test_exp_zero(self):
        g = group.exp(SL2, np.zeros(6))
        assert is_identity(g)

    def test_one_parameter(self, rng):
        x = rng.standard_normal(6)
        g1 = group.exp(SL2, x, 0.3).mul(group.exp(SL2, x, 0.5))
        g2 = group.exp(SL2, x, 0.8)
        np.testing.assert_allclose(g1.matrix, g2.matrix, atol=1e-10)

    def test_su2_closed_form(self):
        # exp(theta * e3) = cos(theta/2) I - i sin(theta/2) sigma3
        theta = 2.0 * np.pi
        g = group.exp(SL2, theta * basis(SL2, 2))
        np.testing.assert_allclose(g.matrix[0], -np.eye(2), atol=1e-12)
        theta = 1.234
        g = group.exp(SL2, theta * basis(SL2, 2))
        expect = (np.cos(theta / 2) * np.eye(2)
                  - 1j * np.sin(theta / 2) * np.diag([1.0, -1.0]))
        np.testing.assert_allclose(g.matrix[0], expect, atol=1e-12)


class TestClosedFormExp:
    """The built-in closed-form exponentials against scipy.linalg.expm."""

    @staticmethod
    def check(a, coords, rtol=1e-14):
        mats = np.einsum("ni,ijk->njk", coords, a.basis_matrices)
        got = a.exponential(mats)
        for m, g in zip(mats, got):
            ref = scipy.linalg.expm(m)
            assert np.abs(g - ref).max() <= rtol * max(1.0, np.abs(ref).max())

    def test_sl2c_nilpotent_directions(self):
        # b2, b3 and their combinations square to zero: s = 0 exactly
        rng = np.random.default_rng(5101)
        coords = np.zeros((20, 6))
        coords[:, 4:] = 3.0 * rng.standard_normal((20, 2))
        self.check(SL2, coords)
        g = group.exp(SL2, coords[0])
        np.testing.assert_array_equal(
            g.matrix[0], np.eye(2) + SL2.vec_to_mat(coords[0]))

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3])
    def test_sl2c_tiny(self, scale):
        rng = np.random.default_rng(5102)
        self.check(SL2, scale * rng.standard_normal((50, 6)))

    @pytest.mark.parametrize("scale", [0.5, 2.0, 6.0])
    def test_sl2c_large_and_complex_roots(self, scale):
        rng = np.random.default_rng(5103)
        coords = scale * rng.standard_normal((50, 6))
        s2 = [-np.linalg.det(SL2.vec_to_mat(c)) for c in coords]
        # generic points have a genuinely complex sqrt(-det X)
        assert max(abs(np.imag(np.sqrt(v))) for v in s2) > 0.1 * scale
        self.check(SL2, coords)

    def test_sl2c_series_boundary(self):
        # |det X| just below and above 1, where the series hands over
        rng = np.random.default_rng(5104)
        coords = rng.standard_normal((40, 6))
        dets = np.array([abs(np.linalg.det(SL2.vec_to_mat(c)))
                         for c in coords])
        for target in (0.999, 1.001):
            self.check(SL2, coords * np.sqrt(target / dets)[:, None])

    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-5, 1e-2, 0.9, 1.1,
                                       3.0, 2 * np.pi])
    def test_so3_rodrigues(self, angle):
        rng = np.random.default_rng(5105)
        coords = rng.standard_normal((20, 6))
        coords[:, :3] *= angle / np.linalg.norm(coords[:, :3], axis=1,
                                                keepdims=True)
        self.check(SO3, coords)

    # s^2 at 0, at +-1e-12 ... +-10 and on both sides of |s^2| = 1, where
    # the series of the last remainder hands over to the quotient
    MAGNITUDES = [1e-12, 1e-9, 1e-6, 1e-3, 0.25, 0.5, 1 - 1e-9, 1.0,
                  1 + 1e-9, 2.0, 5.0, 10.0]

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_scalars_match_series_oracle(self, kind):
        r = np.array([0.0] + self.MAGNITUDES)
        if kind == "real":
            s2 = np.concatenate([r, -r])
        else:
            phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, 13))
            s2 = (r[:, None] * phases).ravel()
        got = _cosh_sinhc(s2, remainders=True)
        ref = cosh_sinhc_series(s2, remainders=True)
        assert all(f.dtype == s2.dtype for f in got)
        for f, f_ref, rtol in zip(got, ref, [1e-15, 1e-15, 1e-15, 1e-14]):
            assert (np.abs(f - f_ref) <= rtol * np.abs(f_ref)).all()
        # exact at s = 0
        assert [f[0] for f in got] == [1.0, 1.0, 0.5, 1.0 / 6.0]

    def test_loop_stack(self):
        # a lattice point exponentiates site by site
        from liedouble import loop
        alg = loop.build_loop_double(SL2, 8)
        x = np.random.default_rng(5106).standard_normal(alg.shape)
        g = group.exp(alg, x)
        for j in range(8):
            np.testing.assert_allclose(
                g.matrix[j], scipy.linalg.expm(SL2.vec_to_mat(x[j])),
                atol=1e-14)


class TestAdjoint:
    def test_identity(self, rng):
        x = rng.standard_normal(SL2.shape)
        np.testing.assert_allclose(
            group.adjoint(group.identity(SL2), x), x, atol=1e-12)

    def test_pairing_invariance(self, rng):
        for _ in range(10):
            g = group.random_point(SL2, rng)
            x, y = rng.standard_normal((2, 6))
            assert SL2.pair(group.adjoint(g, x), group.adjoint(g, y)) == \
                pytest.approx(SL2.pair(x, y), abs=1e-9)

    def test_group_action(self, rng):
        g, h = group.random_point(SL2, rng), group.random_point(SL2, rng)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(
            group.adjoint(g.mul(h), x),
            group.adjoint(g, group.adjoint(h, x)), atol=1e-10)

    @pytest.mark.parametrize("name", ["so3-cotangent", "sl2c-iwasawa",
                                      "loop"])
    def test_pairing_invariance_as_operators(self, name):
        # Ad_g^T P Ad_g = P, so Ad_g^{-1} = P^{-1} Ad_g^T P needs no solve
        a = (loop.build_loop_double(SL2, 8) if name == "loop"
             else get_algebra(name))
        rng = np.random.default_rng(5150)
        p = dense(a.pairing, a.n_sites)
        for _ in range(5):
            adg = dense(group.random_point(a, rng).ad_matrix())
            np.testing.assert_allclose(adg.T @ p @ adg, p, rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("n_sites", [1, 8])
    @pytest.mark.parametrize("name", ["so3-cotangent", "sl2c-iwasawa"])
    def test_sandwich_matches_kron_oracle(self, name, n_sites):
        base = get_algebra(name)
        a = base if n_sites == 1 else loop.build_loop_double(base, n_sites)
        rng = np.random.default_rng(5151)
        m = base.basis_matrices.shape[-1]
        g = group.random_point(a, rng).matrix.reshape(-1, m, m)
        # the adjoint's pair, and the loop cocycle's pairs with an identity
        eye = np.broadcast_to(np.eye(m), g.shape)
        for left, right in [(g, np.linalg.inv(g)), (g @ g, eye), (eye, g)]:
            got = a.sandwich(left, right)
            ref = sandwich_kron(a, left, right)
            assert got.shape == (len(g), base.dim, base.dim)
            assert np.abs(got - ref).max() <= 1e-14 * max(
                1.0, np.abs(ref).max())

    def test_coadjoint_transpose(self, rng):
        g = group.random_point(SO3, rng)
        eta, x = rng.standard_normal((2, 6))
        lhs = np.vdot(group.coadjoint_star(g, eta), x)
        rhs = np.vdot(eta, group.adjoint(g, x))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestFactorize:
    def test_identity(self):
        gp, gm = group.identity(SL2).factors()
        assert is_identity(gp) and is_identity(gm)

    def test_plus_point(self, rng):
        g = group.exp(SL2, SL2.project(rng.standard_normal(6), "plus"))
        gp, gm = g.factors()
        np.testing.assert_allclose(gp.matrix, g.matrix, atol=1e-10)
        assert is_identity(gm, 1e-10)

    def test_random_sl2c(self, rng):
        for _ in range(50):
            g = group.exp(SL2, rng.standard_normal(6))
            gp, gm = g.factors()
            assert np.abs(gp.matrix @ gm.matrix - g.matrix).max() < 1e-10
            assert gp.member("plus") and gm.member("minus")

    def test_semidirect(self, rng):
        for _ in range(20):
            g = group.exp(SO3, rng.standard_normal(6))
            gp, gm = g.factors()
            assert np.abs(gp.matrix @ gm.matrix - g.matrix).max() < 1e-10
            assert gp.member("plus") and gm.member("minus")


KERNEL_CASES = [(name, n) for name in ("sl2c-iwasawa", "so3-cotangent")
                for n in (1, 8, 32)]


def kernel_points(name, n_sites, rng, count=2):
    """The double (a loop for n_sites > 1) and matrices of random points:
    one matrix each, or (N, m, m) stacks."""
    base = get_algebra(name)
    a = base if n_sites == 1 else loop.build_loop_double(base, n_sites)
    return a, [group.random_point(a, rng).matrix for _ in range(count)]


class TestKernels:
    """The closed-form group kernels against numpy.linalg and @."""

    @pytest.mark.parametrize("name,n_sites", KERNEL_CASES)
    def test_inverse_matches_numpy(self, name, n_sites, rng):
        a, (m, _) = kernel_points(name, n_sites, rng)
        # a group point, and a matrix a little off the group, as a declared
        # g- within the membership tolerance can be (so3-cotangent keeps
        # its affine last row)
        off = m * (1.0 + 1e-9 * rng.standard_normal(m.shape))
        off[..., 3:, :] = m[..., 3:, :]
        for mat in (m, off):
            got, want = a.inverse(mat), np.linalg.inv(mat)
            assert got.shape == mat.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("name,n_sites", KERNEL_CASES)
    def test_factorizer_matches_linalg_oracle(self, name, n_sites, rng):
        a, (m, _) = kernel_points(name, n_sites, rng)
        oracle = qr_factorize if name == "sl2c-iwasawa" else solve_factorize
        for got, want in zip(a.factorizer(m), oracle(m)):
            assert got.shape == m.shape
            assert np.abs(got - want).max() <= 1e-14
        gp, gm = a.factorizer(m)
        assert GroupPoint(a, gp).member("plus")
        assert GroupPoint(a, gm).member("minus")

    @pytest.mark.parametrize("name,n_sites", KERNEL_CASES)
    def test_product_matches_matmul(self, name, n_sites, rng):
        _, (m, h) = kernel_points(name, n_sites, rng)
        # the last pair is a (2, N, m, m) stack of two points
        for left, right in ((m, h), (m.swapaxes(-1, -2), h),
                            (np.stack([m, h]), np.stack([h, m]))):
            want = left @ right
            assert np.abs(group.matmul(left, right) - want).max() <= (
                1e-14 * np.abs(want).max())


class TestLayout:
    """Every group point is an (N, m, m) site stack, N = 1 on a base
    double."""

    @pytest.mark.parametrize("a", [SO3, SL2, loop.build_loop_double(SL2, 8)],
                             ids=lambda a: a.name)
    def test_points_have_the_identity_shape(self, a, rng):
        assert a.identity_matrix.shape == (
            (a.n_sites,) + a.basis_matrices.shape[1:])
        g = group.random_point(a, rng)
        h = group.exp(a, 0.5 * rng.standard_normal(a.shape))
        for p in (group.identity(a), h, g, g.mul(h), g.inv(), *g.factors()):
            assert p.matrix.shape == a.identity_matrix.shape

    @staticmethod
    def sb2_oracle(m, tol=group.MEMBER_TOL):
        # SB(2,C) at one site: upper triangular, det 1, positive real m00
        return bool(abs(m[1, 0]) < tol and abs(np.linalg.det(m) - 1) < tol
                    and abs(m[0, 0].imag) < tol and m[0, 0].real > 0)

    @pytest.mark.parametrize("defect", ["lower", "phase"])
    def test_loop_member_agrees_with_per_site_oracle(self, defect, rng):
        alg = loop.build_loop_double(SL2, 8)
        gm = group.exp(alg, alg.project(rng.standard_normal(alg.shape),
                                        "minus"))
        assert gm.member("minus")
        assert all(self.sb2_oracle(m) for m in gm.matrix)
        for j in range(8):
            off = gm.matrix.copy()
            if defect == "lower":
                off[j, 1, 0] = 1e-3
            else:  # det 1 kept, the diagonal leaves the reals
                off[j] = np.diag([np.exp(0.1j), np.exp(-0.1j)]) @ off[j]
            oracle = [self.sb2_oracle(m) for m in off]
            assert oracle.count(False) == 1 and not oracle[j]
            assert GroupPoint(alg, off).member("minus") == all(oracle)


def stack_cases():
    """(double, group cocycle): the base doubles with a coboundary, and an
    N = 8 loop with its lattice cocycle, whose central difference runs
    along axis -3 of a point stack and -2 of its coordinates."""
    loop8 = loop.build_loop_double(SL2, 8)
    mu0 = 0.3 * np.arange(1.0, 7.0)
    return [(SL2, GroupCocycle.coboundary(SL2, mu0)),
            (SO3, GroupCocycle.coboundary(SO3, mu0)),
            (loop8, loop.loop_group_cocycle(loop8, 0.6))]


class TestPointStacks:
    """K points as one (K, N, m, m) stack give what K single-point calls
    give."""

    @pytest.mark.parametrize("a,cocycle", stack_cases(),
                             ids=["sl2c-iwasawa", "so3-cotangent", "loop-N8"])
    def test_stack_matches_single_points(self, a, cocycle, rng):
        k = 3
        x = 0.5 * rng.standard_normal((k,) + a.shape)
        y = 0.5 * rng.standard_normal((k,) + a.shape)
        delta = rng.standard_normal((k,) + a.shape)
        g, h = group.exp(a, x), group.exp(a, y)
        gp, gm = g.factors()
        assert g.matrix.shape == (k,) + a.identity_matrix.shape
        assert gp.member("plus") and gm.member("minus")
        for i in range(k):
            gi, hi = group.exp(a, x[i]), group.exp(a, y[i])
            pairs = [(g, gi), (g.mul(h), gi.mul(hi)), (g.inv(), gi.inv()),
                     *zip(g.factors(), gi.factors())]
            for stack, one in pairs:
                np.testing.assert_allclose(stack.matrix[i], one.matrix,
                                           rtol=0, atol=1e-14)
            for stack, one in ((g.ad_matrix(), gi.ad_matrix()),
                               (cocycle.value(g), cocycle.value(gi)),
                               (cocycle.differential_inv(g, delta),
                                cocycle.differential_inv(gi, delta[i]))):
                np.testing.assert_allclose(stack[i], one, rtol=1e-13,
                                           atol=1e-13)
        # membership is one verdict: one point off the factor fails it
        off = gm.matrix.copy()
        off[1] = gp.matrix[1]
        assert not group.GroupPoint(a, off).member("minus")

    @pytest.mark.parametrize("a", [SL2, SO3, loop.build_loop_double(SO3, 8)],
                             ids=lambda a: a.name)
    def test_random_stack_draws_in_single_point_order(self, a):
        stack = group.random_point(a, np.random.default_rng(7), batch=4)
        rng = np.random.default_rng(7)
        for i in range(4):
            np.testing.assert_array_equal(
                stack.matrix[i], group.random_point(a, rng).matrix)


class TestMissingHooks:
    """An algebra built without a group hook names it on first use."""

    BARE = algebra_from_matrices(
        "sl2c-bare", SL2.labels, SL2.basis_matrices, SL2.pairing,
        SL2.site_plus, SL2.site_minus)

    @pytest.mark.parametrize("hook,call", [
        ("exponential", lambda a: group.exp(a, np.ones(a.dim))),
        ("inverse", lambda a: GroupPoint(a, a.identity_matrix).inv()),
        ("factorizer", lambda a: GroupPoint(a, a.identity_matrix).factors()),
        # an SU(2) matrix, which no missing hook may pass as minus
        ("minus membership", lambda a: GroupPoint(
            a, np.array([[[0, 1], [-1, 0]]], dtype=complex)).member("minus")),
    ])
    def test_error_names_hook_and_algebra(self, hook, call):
        with pytest.raises(ValueError,
                           match="'sl2c-bare' has no %s hook" % hook):
            call(self.BARE)


class TestDressing:
    def test_identity_acts_trivially(self, rng):
        g = group.exp(SL2, SL2.project(rng.standard_normal(6), "plus"))
        out = group.identity(SL2).mul(g).factors()[0]
        np.testing.assert_allclose(out.matrix, g.matrix, atol=1e-12)

    def test_semidirect_closed_form(self, rng):
        # translations dress rotations trivially: (I,v)(R,0) = (R,0)(I,R^-1 v)
        h = group.exp(SO3, SO3.project(rng.standard_normal(6), "minus"))
        g = group.exp(SO3, SO3.project(rng.standard_normal(6), "plus"))
        out = h.mul(g).factors()[0]
        np.testing.assert_allclose(out.matrix, g.matrix, atol=1e-12)

    def test_infinitesimal(self, rng):
        # d/dt Pi_{G+}(exp(t X-) g+)|_0 = g+ (Pi_{g+} Ad_{g+^{-1}} X-)
        gp = group.exp(SL2, SL2.project(rng.standard_normal(6), "plus"))
        xm = SL2.project(rng.standard_normal(6), "minus")
        h = fd_step(xm)
        dp = group.exp(SL2, xm, h).mul(gp).factors()[0].matrix
        dm = group.exp(SL2, xm, -h).mul(gp).factors()[0].matrix
        fd = (dp - dm) / (2 * h)
        inner = SL2.project(group.adjoint(gp.inv(), xm), "plus")
        expect = gp.matrix @ SL2.vec_to_mat(inner)
        np.testing.assert_allclose(fd, expect, atol=1e-6)

    def test_infinitesimal_antihomomorphism(self, rng):
        # [g+^{X-}, g+^{Y-}] = -g+^{[X-,Y-]} as vector fields on G+
        gp = group.exp(SL2, SL2.project(0.4 * rng.standard_normal(6), "plus"))
        xm = SL2.project(rng.standard_normal(6), "minus")
        ym = SL2.project(rng.standard_normal(6), "minus")

        def field(x, g):
            # left-trivialized dressing generator at g in G+
            return SL2.project(group.adjoint(g.inv(), x), "plus")

        h = 1e-4

        def flow_bracket(x, y):
            # finite-difference Lie bracket of the two generator fields
            def push(x, g):
                return group.exp(SL2, x, h).mul(g).factors()[0]
            gxy = push(y, push(x, gp))
            gyx = push(x, push(y, gp))
            return (gxy.matrix - gyx.matrix) / h ** 2

        lhs = flow_bracket(xm, ym)
        rhs = -gp.matrix @ SL2.vec_to_mat(field(SL2.bracket(xm, ym), gp))
        np.testing.assert_allclose(lhs, rhs, atol=1e-3)


class TestGroupCocycle:
    def test_identity_value(self, rng):
        c = GroupCocycle.coboundary(SL2, rng.standard_normal(6))
        np.testing.assert_allclose(c.value(group.identity(SL2)), 0, atol=1e-14)

    def test_cocycle_property(self, rng):
        c = GroupCocycle.coboundary(SL2, rng.standard_normal(6))
        for _ in range(10):
            g = group.random_point(SL2, rng)
            h = group.random_point(SL2, rng)
            lhs = c.value(g.mul(h))
            rhs = group.coadjoint_star(g.inv(), c.value(h)) + c.value(g)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_fd_consistency_with_hat(self, rng):
        # -dC|_e = c_hat, central differences along exp(tX)
        mu0 = rng.standard_normal(6)
        c = GroupCocycle.coboundary(SO3, mu0)
        chat = c.infinitesimal()
        x = rng.standard_normal(6)
        h = fd_step(x)
        fd = (c.value(group.exp(SO3, x, h))
              - c.value(group.exp(SO3, x, -h))) / (2 * h)
        np.testing.assert_allclose(-fd, chat.hat(x), atol=1e-6)

    def test_compatibility_identity(self, rng):
        # c(Ad_g X, Ad_g Y) = c(X,Y) + <C(g^{-1}), [X,Y]>
        mu0 = rng.standard_normal(6)
        c = GroupCocycle.coboundary(SL2, mu0)
        chat = c.infinitesimal()
        for _ in range(10):
            g = group.random_point(SL2, rng)
            x, y = rng.standard_normal((2, 6))
            lhs = chat.eval(group.adjoint(g, x), group.adjoint(g, y))
            rhs = chat.eval(x, y) + np.vdot(c.value(g.inv()),
                                            SL2.bracket(x, y))
            assert lhs == pytest.approx(rhs, abs=1e-9)


    @pytest.mark.parametrize("a", [SO3, SL2], ids=lambda a: a.name)
    def test_pullback_matches_operator_oracle(self, a):
        # differential_inv(g, delta) = M^T delta for the whole operator M
        rng = np.random.default_rng(2718)
        mu0 = rng.standard_normal(a.dim)
        c = GroupCocycle.coboundary(a, mu0)
        for _ in range(5):
            g = group.random_point(a, rng)
            delta = rng.standard_normal(a.dim)
            want = dense(coboundary_differential_inv(a, mu0, g)).T @ delta
            got = c.differential_inv(g, delta)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_takes_the_points_shape(self, rng):
        # a (3, 1, 2, 2) stack: one zero covector per point
        g = group.random_point(SL2, rng, batch=3)
        zero = GroupCocycle.zero(SL2)
        assert g.matrix.shape == (3, 1, 2, 2)
        assert zero.value(g).shape == (3, 1, 6)
        for delta in (np.ones((1, 6)), np.ones((2, 3, 1, 6))):
            pulled = zero.differential_inv(g, delta)
            assert pulled.shape == np.broadcast_shapes((3, 1, 6), delta.shape)
            assert not pulled.any()

    @pytest.mark.parametrize("a", [SO3, SL2], ids=lambda a: a.name)
    def test_zero_pullback(self, a):
        rng = np.random.default_rng(2719)
        g = group.random_point(a, rng)
        delta = rng.standard_normal(a.dim)
        want = dense(TwoCocycle.zero(a).matrix).T @ delta
        np.testing.assert_array_equal(
            flat(GroupCocycle.zero(a).differential_inv(g, delta)), want)


class TestKernelCheck:
    def test_identity_and_zero(self, rng):
        c0 = GroupCocycle.zero(SL2)
        g = group.exp(SL2, SL2.project(rng.standard_normal(6), "minus"))
        assert group.kernel_check(c0, g)
        cb = GroupCocycle.coboundary(SL2, rng.standard_normal(6))
        assert group.kernel_check(cb, group.identity(SL2))

    def test_stabilizer(self):
        mu0 = np.zeros(6)
        mu0[3] = 1.0  # dual of the diagonal sb generator
        c = GroupCocycle.coboundary(SL2, mu0)
        g_stab = group.exp(SL2, 0.7 * basis(SL2, 3))
        assert group.kernel_check(c, g_stab)
        g_gen = group.exp(SL2, 0.7 * basis(SL2, 4))
        assert not group.kernel_check(c, g_gen)
