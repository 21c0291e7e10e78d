import numpy as np
import pytest

from liedouble.blocks import BlockOperator
from oracles import dense

D = 6


def random_op(rng, n):
    return BlockOperator(rng.standard_normal((n, D, D)))


@pytest.mark.parametrize("n", [1, 4, 8])
class TestAgainstDense:
    def test_matvec_and_columns(self, n):
        rng = np.random.default_rng(4101)
        op = random_op(rng, n)
        x = rng.standard_normal(n * D)
        cols = rng.standard_normal((n * D, 3))
        np.testing.assert_allclose(op @ x, dense(op) @ x, atol=1e-12)
        np.testing.assert_allclose(op @ cols, dense(op) @ cols, atol=1e-12)

    def test_left_multiplication(self, n):
        rng = np.random.default_rng(4102)
        op = random_op(rng, n)
        x = rng.standard_normal(n * D)
        rows = rng.standard_normal((3, n * D))
        np.testing.assert_allclose(x @ op, x @ dense(op), atol=1e-12)
        np.testing.assert_allclose(rows @ op, rows @ dense(op), atol=1e-12)

    def test_transpose(self, n):
        op = random_op(np.random.default_rng(4103), n)
        np.testing.assert_array_equal(dense(op.T), dense(op).T)

    def test_product_sum_and_scaling(self, n):
        rng = np.random.default_rng(4104)
        a = random_op(rng, n)
        b = random_op(rng, n)
        np.testing.assert_allclose(dense(a @ b), dense(a) @ dense(b),
                                   atol=1e-12)
        np.testing.assert_allclose(dense(b @ a), dense(b) @ dense(a),
                                   atol=1e-12)
        np.testing.assert_allclose(dense(a - 2.0 * b), dense(a)
                                   - 2.0 * dense(b), atol=1e-12)
        assert (a - a).max_abs() == 0.0


def uniform_op(rng, n):
    """One (D, D) block on every site, stored with stride 0 like the
    pairing."""
    return BlockOperator(np.broadcast_to(rng.standard_normal((D, D)),
                                         (n, D, D)))


@pytest.mark.parametrize("n", [1, 4, 8])
class TestUniform:
    def test_apply_left_multiplication_and_transpose(self, n):
        rng = np.random.default_rng(4111)
        op = uniform_op(rng, n)
        x = rng.standard_normal(n * D)
        cols = rng.standard_normal((n * D, 3))
        np.testing.assert_allclose(op @ x, dense(op) @ x, atol=1e-12)
        np.testing.assert_allclose(op @ cols, dense(op) @ cols, atol=1e-12)
        np.testing.assert_allclose(x @ op, x @ dense(op), atol=1e-12)
        np.testing.assert_allclose(cols.T @ op, cols.T @ dense(op),
                                   atol=1e-12)
        np.testing.assert_array_equal(dense(op.T), dense(op).T)
        assert op.T.blocks.strides[0] == 0

    def test_products(self, n):
        rng = np.random.default_rng(4112)
        a, b = uniform_op(rng, n), uniform_op(rng, n)
        per_site = random_op(rng, n)
        ab = a @ b
        assert ab.blocks.strides[0] == 0  # the product stays uniform
        for got, want in ((ab, dense(a) @ dense(b)),
                          (a @ per_site, dense(a) @ dense(per_site)),
                          (per_site @ a, dense(per_site) @ dense(a))):
            np.testing.assert_allclose(dense(got), want, atol=1e-12)

    def test_scalar_multiple_stays_uniform(self, n):
        a = uniform_op(np.random.default_rng(4113), n)
        for got, want in ((2.5 * a, 2.5 * dense(a)), (-a, -dense(a))):
            assert got.blocks.strides[0] == 0
            np.testing.assert_array_equal(dense(got), want)


def test_restrict_takes_sub_blocks_of_every_site():
    op = random_op(np.random.default_rng(4107), 8)
    rows, cols = np.array([0, 2]), np.array([1, 3, 5])
    np.testing.assert_array_equal(op.restrict(rows, cols).blocks,
                                  op.blocks[:, rows][:, :, cols])


def test_max_abs_keeps_nan_of_any_site():
    # wherever the NaN sits, it must not be dropped for a finite maximum
    for site in (0, 1):
        blocks = np.ones((2, D, D))
        blocks[site, 1, 2] = np.nan
        assert np.isnan(BlockOperator(blocks).max_abs())
