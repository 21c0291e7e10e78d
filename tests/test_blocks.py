"""Operators are plain arrays: an (N, d, d) stack of site blocks, applied
with np.matvec / np.vecmat, or one uniform (d, d) block, applied as x @ A.
Each library operator is checked against its dense (N d, N d) matrix on
flat coordinates, on a base double (N = 1) and on loops (N = 4, 8)."""

import numpy as np
import pytest

from liedouble import group, loop
from liedouble.algebra import (TwoCocycle, _max_abs, _sub_blocks,
                               get_algebra)
from liedouble.dynamics import EnergyOperator
from liedouble.phase import PhaseSpace
from oracles import dense, flat

BASE = get_algebra("sl2c-iwasawa")
D = BASE.dim


def double(n):
    return BASE if n == 1 else loop.build_loop_double(BASE, n)


def stack_ops(a, rng):
    """Per-site operators of the library at a random point."""
    g = group.random_point(a, rng)
    x, eta = rng.standard_normal((2,) + a.shape)
    return {"ad": a.ad(x), "bracket_form": a.bracket_form(eta),
            "Ad_g": g.ad_matrix(), "E_g": EnergyOperator.preset(
                a, "skewed").at(g),
            "projector": PhaseSpace(a).dressed_projector(g.factors()[1])}


@pytest.mark.parametrize("n", [1, 4, 8])
class TestAgainstDense:
    def test_matvec_and_columns(self, n):
        rng = np.random.default_rng(4101)
        a = double(n)
        x = rng.standard_normal(a.shape)
        rows = rng.standard_normal((3,) + a.shape)
        for name, op in stack_ops(a, rng).items():
            assert op.shape == (n, D, D), name
            np.testing.assert_allclose(flat(np.matvec(op, x)),
                                       dense(op) @ flat(x), atol=1e-12)
            np.testing.assert_allclose(flat(np.matvec(op, rows)),
                                       flat(rows) @ dense(op).T, atol=1e-12)

    def test_left_multiplication(self, n):
        rng = np.random.default_rng(4102)
        a = double(n)
        x = rng.standard_normal(a.shape)
        rows = rng.standard_normal((3,) + a.shape)
        for op in stack_ops(a, rng).values():
            np.testing.assert_allclose(flat(np.vecmat(x, op)),
                                       flat(x) @ dense(op), atol=1e-12)
            np.testing.assert_allclose(flat(np.vecmat(rows, op)),
                                       flat(rows) @ dense(op), atol=1e-12)

    def test_transpose(self, n):
        rng = np.random.default_rng(4103)
        a = double(n)
        g = group.random_point(a, rng)
        eta = rng.standard_normal(a.shape)
        for op in stack_ops(a, rng).values():
            np.testing.assert_array_equal(dense(op.swapaxes(-1, -2)),
                                          dense(op).T)
        # the coadjoint action is the transpose of the adjoint one
        np.testing.assert_allclose(flat(group.coadjoint_star(g, eta)),
                                   dense(g.ad_matrix()).T @ flat(eta),
                                   atol=1e-12)

    def test_product_sum_and_scaling(self, n):
        rng = np.random.default_rng(4104)
        a = double(n)
        ops = list(stack_ops(a, rng).values())
        for b, c in zip(ops, ops[1:]):
            np.testing.assert_allclose(dense(b @ c), dense(b) @ dense(c),
                                       atol=1e-12)
            np.testing.assert_allclose(dense(b - 2.0 * c),
                                       dense(b) - 2.0 * dense(c), atol=1e-12)
        assert _max_abs(ops[0] - ops[0]) == 0.0


def uniform_ops(a):
    """The library's uniform (d, d) blocks: every site carries the same."""
    ops = {"pairing": a.pairing, "pairing_inv": a.pairing_inv,
           "plus": a.selector("plus"), "minus": a.selector("minus"),
           "energy": EnergyOperator.preset(a, "skewed").matrix}
    if a.lattice is not None:
        ops["lattice"] = loop.loop_two_cocycle(a, 0.6).matrix
    return ops


@pytest.mark.parametrize("n", [1, 4, 8])
class TestUniform:
    def test_apply_left_multiplication_and_transpose(self, n):
        rng = np.random.default_rng(4111)
        a = double(n)
        x = rng.standard_normal(a.shape)
        for name, op in uniform_ops(a).items():
            assert op.shape == (D, D), name
            full = dense(op, n)
            np.testing.assert_allclose(flat(x @ op.T), full @ flat(x),
                                       atol=1e-12)
            np.testing.assert_allclose(flat(x @ op), flat(x) @ full,
                                       atol=1e-12)
        # the blocks applied as x @ A are symmetric: psi, psi_bar, selectors
        for name in ("pairing", "pairing_inv", "plus", "minus"):
            op = uniform_ops(a)[name]
            np.testing.assert_array_equal(op, op.T)
        np.testing.assert_allclose(flat(a.psi(x)),
                                   dense(a.pairing, n) @ flat(x), atol=1e-12)
        np.testing.assert_allclose(flat(a.psi_bar(a.psi(x))), flat(x),
                                   atol=1e-12)

    def test_products(self, n):
        rng = np.random.default_rng(4112)
        a = double(n)
        u = uniform_ops(a)
        per_site = stack_ops(a, rng)["Ad_g"]
        ab = u["pairing"] @ u["energy"]
        assert ab.shape == (D, D)  # the product stays one block
        for got, want in (
                (dense(ab, n), dense(u["pairing"], n) @ dense(u["energy"], n)),
                (dense(u["plus"] @ per_site),
                 dense(u["plus"], n) @ dense(per_site)),
                (dense(per_site @ u["minus"]),
                 dense(per_site) @ dense(u["minus"], n))):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_scalar_multiple_stays_uniform(self, n):
        a = double(n)
        p = a.pairing
        for got, want in ((2.5 * p, 2.5 * dense(p, n)), (-p, -dense(p, n))):
            assert got.shape == (D, D)
            np.testing.assert_array_equal(dense(got, n), want)
        if n > 1:
            # the lattice cocycle's -k P is the pairing's block, scaled
            c = loop.loop_two_cocycle(a, 0.6).matrix
            np.testing.assert_array_equal(c, -0.6 * p)
        assert TwoCocycle.zero(a).matrix.shape == (D, D)


def test_restrict_takes_sub_blocks_of_every_site():
    op = np.random.default_rng(4107).standard_normal((8, D, D))
    rows, cols = np.array([0, 2]), np.array([1, 3, 5])
    np.testing.assert_array_equal(_sub_blocks(op, rows, cols),
                                  op[:, rows][:, :, cols])
    np.testing.assert_array_equal(_sub_blocks(op[0], rows, cols),
                                  op[0][rows][:, cols])


def test_max_abs_keeps_nan_of_any_site():
    # wherever the NaN sits, it must not be dropped for a finite maximum
    for site in (0, 1):
        blocks = np.ones((2, D, D))
        blocks[site, 1, 2] = np.nan
        assert np.isnan(_max_abs(blocks))
    assert _max_abs(np.zeros((0, D))) == 0.0
