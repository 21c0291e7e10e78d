import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedouble.algebra import (STRUCTURE_TOL, BasisAlgebra, TwoCocycle,
                               algebra_from_declaration,
                               cocycle_identity_residual, get_algebra,
                               is_character, validate_manin)
from liedouble import group
from liedouble.loop import build_loop_double


SO3 = get_algebra("so3-cotangent")
SL2 = get_algebra("sl2c-iwasawa")


def basis(a, i):
    v = np.zeros(a.dim)
    v[i] = 1.0
    return v


# --- independent oracle: sl(2,C) bracket/pairing via 2x2 matrices ---------

SIGMA = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]
SL2_BASIS = ([-0.5j * s for s in SIGMA]
             + [np.array([[0.5, 0], [0, -0.5]], dtype=complex),
                np.array([[0, 1], [0, 0]], dtype=complex),
                np.array([[0, 1j], [0, 0]], dtype=complex)])


def sl2_coords_oracle(m):
    # solve for real coords in the 6-matrix basis by stacking re/im parts
    cols = np.array([b.reshape(-1) for b in SL2_BASIS]).T
    sys = np.vstack([cols.real, cols.imag])
    rhs = np.concatenate([m.reshape(-1).real, m.reshape(-1).imag])
    sol, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
    return sol


class TestBracket:
    def test_so3_e1_e2(self):
        out = SO3.bracket(basis(SO3, 0), basis(SO3, 1))
        np.testing.assert_allclose(out, basis(SO3, 2), atol=1e-13)

    def test_antisymmetry_random(self, rng):
        for _ in range(20):
            x = rng.standard_normal(6)
            np.testing.assert_allclose(SL2.bracket(x, x), 0, atol=1e-12)

    def test_sl2_matrix_commutator_oracle(self):
        for i in range(6):
            for j in range(6):
                comm = (SL2_BASIS[i] @ SL2_BASIS[j]
                        - SL2_BASIS[j] @ SL2_BASIS[i])
                expect = sl2_coords_oracle(comm)
                got = SL2.bracket(basis(SL2, i), basis(SL2, j))
                np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SO3.bracket(np.zeros(5), np.zeros(6))


class TestPairing:
    def test_isotropy(self, rng):
        xp = SL2.project(rng.standard_normal(6), "plus")
        yp = SL2.project(rng.standard_normal(6), "plus")
        assert abs(SL2.pair(xp, yp)) < 1e-12

    def test_ad_invariance_random(self, rng):
        for a in (SO3, SL2):
            for _ in range(20):
                x, y, z = rng.standard_normal((3, a.dim))
                r = a.pair(a.bracket(x, y), z) + a.pair(y, a.bracket(x, z))
                assert abs(r) < 1e-10

    def test_sl2_trace_oracle(self):
        # (e3, b1) = -2 Im tr(e3 b1), frozen value
        val = -2.0 * np.imag(np.trace(SL2_BASIS[2] @ SL2_BASIS[3]))
        assert val == pytest.approx(1.0, abs=1e-14)
        assert SL2.pair(basis(SL2, 2), basis(SL2, 3)) == pytest.approx(val)


class TestPsi:
    def test_roundtrip(self, rng):
        for a in (SO3, SL2):
            x = rng.standard_normal(a.dim)
            np.testing.assert_allclose(a.psi_bar(a.psi(x)), x, atol=1e-12)

    def test_psi_swaps_factors(self, rng):
        xp = SL2.project(rng.standard_normal(6), "plus")
        eta = SL2.psi(xp)
        # image annihilates g+: no support on plus coords
        assert np.abs(eta[SL2.plus_indices]).max() < 1e-12

    def test_definition(self, rng):
        x, y = rng.standard_normal((2, 6))
        assert SL2.psi(x) @ y == pytest.approx(SL2.pair(x, y), abs=1e-12)


class TestProject:
    def test_minus_basis_kills_plus(self):
        np.testing.assert_allclose(SL2.project(basis(SL2, 3), "plus"), 0)

    def test_complementary(self, rng):
        x = rng.standard_normal(6)
        np.testing.assert_allclose(
            SL2.project(x, "plus") + SL2.project(x, "minus"), x)

    def test_dual_projection_annihilates(self, rng):
        eta = rng.standard_normal(6)
        ep = SL2.project(eta, "plus")
        for i in SL2.minus_indices:
            assert abs(ep @ basis(SL2, i)) < 1e-14


class TestAdStar:
    # the infinitesimal coadjoint action ad*_x = -coad(x, .)
    def test_zero(self, rng):
        x = rng.standard_normal(6)
        np.testing.assert_allclose(-SL2.coad(x, np.zeros(6)), 0)

    def test_definition(self, rng):
        for _ in range(20):
            x, y = rng.standard_normal((2, 6))
            eta = rng.standard_normal(6)
            lhs = -SL2.coad(x, eta) @ y
            assert lhs + eta @ SL2.bracket(x, y) == pytest.approx(0, abs=1e-10)

    def test_abelian_factor(self, rng):
        # g- of the cotangent double is abelian: ad* of a g- vector on
        # covectors dual to g- contracts only vanishing structure constants
        xm = SO3.project(rng.standard_normal(6), "minus")
        eta = SO3.project(rng.standard_normal(6), "minus")
        out = -SO3.coad(xm, eta)
        # oracle: direct structure-constant contraction
        expect = -np.einsum("ijk,i,k->j", SO3.structure_constants, xm, eta)
        np.testing.assert_allclose(out, expect, atol=1e-13)
        np.testing.assert_allclose(out[SO3.minus_indices.tolist()], 0,
                                   atol=1e-13)


class TestCocycle:
    def test_zero_kind(self, rng):
        c = TwoCocycle.zero(SL2)
        np.testing.assert_allclose(c.hat(rng.standard_normal(6)), 0)

    def test_eval_antisymmetric(self, rng):
        mu0 = rng.standard_normal(6)
        c = TwoCocycle.coboundary(SL2, mu0)
        x = rng.standard_normal(6)
        assert c.eval(x, x) == pytest.approx(0, abs=1e-12)
        assert np.abs(c.matrix + c.matrix.swapaxes(-1, -2)).max() < 1e-12

    def test_coboundary_matches_ad_star(self, rng):
        mu0 = rng.standard_normal(6)
        c = TwoCocycle.coboundary(SO3, mu0)
        x = rng.standard_normal(SO3.shape)
        np.testing.assert_allclose(c.hat(x), -SO3.coad(x, mu0), atol=1e-12)

    def test_cocycle_identity(self, rng):
        mu0 = rng.standard_normal(6)
        c = TwoCocycle.coboundary(SL2, mu0)
        for _ in range(10):
            x, y, z = rng.standard_normal((3, 6))
            assert cocycle_identity_residual(c, x, y, z) == pytest.approx(
                0, abs=1e-12)

    def test_isotropic_exchange_flag(self):
        # mu0 dual to the diagonal sb generator kills [g+,g+] and [g-,g-]
        mu0 = np.zeros(6)
        mu0[3] = 1.0
        assert TwoCocycle.coboundary(SL2, mu0).is_isotropic_exchanging()
        generic = TwoCocycle.coboundary(SL2, np.ones(6))
        assert not generic.is_isotropic_exchanging()


class TestCharacter:
    def test_zero_is_character(self):
        assert is_character(SL2, np.zeros(6))

    def test_abelian_minus_always(self, rng):
        eta = SO3.project(rng.standard_normal(6), "minus")
        assert is_character(SO3, eta)

    def test_sb2_cases(self):
        # [b2, b3] = 0 and [b1, b2] = b2, [b1, b3] = b3: characters are
        # exactly the covectors with zero weight on b2, b3
        eta = np.zeros(6)
        eta[3] = 2.5
        assert is_character(SL2, eta)
        eta[4] = 0.1
        assert not is_character(SL2, eta)

    def test_support_precondition(self):
        with pytest.raises(ValueError):
            is_character(SL2, np.ones(6))

    def test_nan_is_no_character(self):
        # a NaN weight on [g-, g-] must not read as vanishing
        eta = np.zeros(6)
        eta[4] = np.nan
        assert not is_character(SL2, eta)
        loop_alg = build_loop_double(SL2, 8)
        eta = np.zeros(loop_alg.shape)
        eta[5, 3] = np.nan
        assert not is_character(loop_alg, eta)

    def test_nan_plus_part_breaks_the_support_precondition(self):
        eta = np.zeros(6)
        eta[1] = np.nan
        with pytest.raises(ValueError, match="support outside"):
            is_character(SL2, eta)

    def test_plus_part_at_the_bound_breaks_the_support_precondition(self):
        # one verdict rule: a residual equal to its bound fails, as it
        # does for the exchanging test and every check
        eta = np.zeros(6)
        eta[1] = STRUCTURE_TOL
        with pytest.raises(ValueError, match="support outside"):
            is_character(SL2, eta)


LAYOUT_DOUBLES = [SO3, SL2, build_loop_double(SL2, 8)]


class TestLayout:
    """Site stacks and the one real layout of complex entries."""

    @pytest.mark.parametrize("a", [SO3, SL2], ids=lambda a: a.name)
    def test_base_double_takes_flat_vectors(self, a, rng):
        # (d,) and (1, d) are the same coordinates of a one-site double
        x, y = rng.standard_normal((2, a.dim))
        rows = x[None], y[None]
        assert a.shape == (1, a.dim)
        for op in (a.bracket, a.coad):
            np.testing.assert_array_equal(op(x, y)[None], op(*rows))
        for side in ("plus", "minus"):
            np.testing.assert_array_equal(a.project(x, side)[None],
                                          a.project(rows[0], side))
        np.testing.assert_array_equal(a.psi_bar(x)[None], a.psi_bar(rows[0]))
        np.testing.assert_array_equal(group.exp(a, x).matrix,
                                      group.exp(a, rows[0]).matrix)
        assert group.exp(a, x).matrix.shape == a.identity_matrix.shape

    def test_loop_refuses_flat_vectors(self, rng):
        # a flat (N d,) vector is not misread as N sites
        a = build_loop_double(SL2, 8)
        flat = rng.standard_normal(a.dim)
        sites = flat.reshape(a.shape)
        for call in (lambda v: a.bracket(v, sites),
                     lambda v: a.bracket(sites, v), lambda v: a.ad(v),
                     lambda v: a.coad(v, sites), lambda v: a.coad(sites, v),
                     a.psi, a.psi_bar, a.bracket_form, a.vec_to_mat,
                     lambda v: a.project(v, "plus"),
                     lambda v: group.exp(a, v)):
            with pytest.raises(ValueError):
                call(flat)

    @pytest.mark.parametrize("a", LAYOUT_DOUBLES, ids=lambda a: a.name)
    def test_mat_to_vec_maps_a_batch_of_stacks_to_rows(self, a, rng):
        xs = rng.standard_normal((3,) + a.shape)
        mats = np.stack([a.vec_to_mat(x) for x in xs])
        assert mats.shape == (3,) + a.identity_matrix.shape
        got = a.mat_to_vec(mats)
        assert got.shape == (3,) + a.shape
        np.testing.assert_allclose(got, xs, atol=1e-13)

    @pytest.mark.parametrize("a", [SO3, SL2], ids=lambda a: a.name)
    def test_entries_transpose_is_the_transpose(self, a, rng):
        size = a.basis_matrices[0].size
        v = rng.standard_normal((4, size)) + 1j * rng.standard_normal(
            (4, size))
        u = rng.standard_normal(a._entries(v).shape)
        lhs = np.real(np.sum(a._entries_transpose(u) * v, axis=-1))
        rhs = np.sum(u * a._entries(v), axis=-1)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestValidate:
    def test_builtins_pass(self):
        for a in (SO3, SL2):
            report = validate_manin(a)
            assert report["passed"], report["failures"]
            for name, res in report["checks"].items():
                if name != "pairing_condition":
                    assert res < 1e-12, (name, res)

    def test_corrupted_jacobi_fails(self):
        a = get_algebra("sl2c-iwasawa")
        a.structure_constants[0, 1, 3] += 0.5
        # a loop over the corrupted base repeats the corrupted site tensor
        for alg in (a, build_loop_double(a, 8)):
            report = validate_manin(alg)
            assert not report["passed"]
            assert "jacobi" in report["failures"]

    def test_non_invariant_pairing_fails(self):
        # symmetric, with isotropic factors, but the cross block
        # diag(1, 2, 3) is not invariant under so(3)
        p = np.kron([[0, 1], [1, 0]], np.diag([1.0, 2.0, 3.0]))
        a = BasisAlgebra("so3-skewed", SO3.labels, p, SO3.site_plus,
                         SO3.site_minus, SO3.structure_constants)
        for alg in (a, build_loop_double(a, 8)):
            assert validate_manin(alg)["failures"] == [
                "pairing_ad_invariance"]

    def test_nan_residual_fails(self):
        # a NaN constant makes the residuals NaN, which must not pass
        a = get_algebra("so3-cotangent")
        a.structure_constants[0, 1, 2] = np.nan
        report = validate_manin(a)
        assert np.isnan(report["checks"]["jacobi"])
        assert not report["passed"]
        assert "jacobi" in report["failures"]


class TestDeclaration:
    def decl(self):
        # 2d abelian double: g+ = span(a), g- = span(b), pairing off-diagonal
        return {"name": "ab2", "dim": 2, "labels": ["a", "b"],
                "structure_constants": [], "pairing": [[0, 1], [1, 0]],
                "plus_indices": [0], "minus_indices": [1]}

    def test_roundtrip(self):
        a = algebra_from_declaration(self.decl())
        assert validate_manin(a)["passed"]

    def test_unknown_key_rejected(self):
        d = self.decl()
        d["extra"] = 1
        with pytest.raises(ValueError):
            algebra_from_declaration(d)

    def test_cocycle_key_rejected(self):
        # a declaration carries no cocycle; the config's section does
        d = self.decl()
        d["cocycle"] = {"kind": "zero"}
        with pytest.raises(ValueError, match=r"unknown .*\['cocycle'\]"):
            algebra_from_declaration(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_numbers_rejected(self, bad):
        for key, value in (("structure_constants", [[0, 1, 1, bad]]),
                           ("pairing", [[0, 1], [1, bad]])):
            d = self.decl()
            d[key] = value
            with pytest.raises(ValueError, match="finite"):
                algebra_from_declaration(d)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_bilinear_identities(seed):
    rng = np.random.default_rng(seed)
    a = SL2
    x, y, z = rng.standard_normal((3, a.dim))
    np.testing.assert_allclose(a.bracket(x, y), -a.bracket(y, x), atol=1e-12)
    jac = (a.bracket(x, a.bracket(y, z)) + a.bracket(y, a.bracket(z, x))
           + a.bracket(z, a.bracket(x, y)))
    np.testing.assert_allclose(jac, 0, atol=1e-10)
    np.testing.assert_allclose(a.project(a.project(x, "plus"), "plus"),
                               a.project(x, "plus"), atol=1e-14)
