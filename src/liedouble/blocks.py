"""Site-blocked linear operators on site-major coordinates.

An operator on N sites of d coordinates is one (N, d, d) stack of diagonal
blocks, (A x)_j = A[j] x_j: every algebra and group operator acts site by
site, and a base double is N = 1. A stack built by ``np.broadcast_to``
from one (d, d) block (stride 0 along the sites, like the pairing), or the
stack of a single site, is uniform: it applies to a vector as one 2-D
product; products and scalar multiples of uniform operators stay uniform.
Products and transposes cost O(N d^3).
"""

import numpy as np

__all__ = ["BlockOperator"]


def _uniform(blocks):
    # one block serves every site: a single site, or stride 0
    return len(blocks) == 1 or blocks.strides[0] == 0


class BlockOperator:
    """The (N, d, d) diagonal ``blocks`` of an operator. Supports ``A @ x``
    and ``x @ A`` for vectors and stacks of them, ``A @ B``, ``A.T``, sums
    and scalar multiples."""

    __array_ufunc__ = None  # ndarray @ operator defers to __rmatmul__

    def __init__(self, blocks):
        self.blocks = blocks
        self.n_sites, self.site_dim = blocks.shape[:2]

    @property
    def T(self):
        return BlockOperator(self.blocks.swapaxes(1, 2))

    def _apply(self, x, transpose=False):
        b = self.blocks
        if _uniform(b) and x.ndim == 1:
            rows = x.reshape(self.n_sites, self.site_dim)
            return (rows @ (b[0] if transpose else b[0].T)).reshape(-1)
        return ((b.swapaxes(1, 2) if transpose else b)
                @ x.reshape(self.n_sites, self.site_dim, -1)).reshape(x.shape)

    def __matmul__(self, other):
        if isinstance(other, BlockOperator):
            a, b = self.blocks, other.blocks
            if _uniform(a) and _uniform(b):
                return BlockOperator(np.broadcast_to(a[0] @ b[0], a.shape))
            return BlockOperator(a @ b)
        return self._apply(np.asarray(other, dtype=float))

    def __rmatmul__(self, x):
        return self._apply(np.asarray(x, dtype=float).T, transpose=True).T

    def __add__(self, other):
        return BlockOperator(self.blocks + other.blocks)

    def __mul__(self, scalar):
        b = self.blocks
        return BlockOperator(np.broadcast_to(scalar * b[0], b.shape)
                             if _uniform(b) else scalar * b)

    __rmul__ = __mul__

    def __neg__(self):
        return -1.0 * self

    def __sub__(self, other):
        return self + -other

    def restrict(self, rows, cols):
        """The operator of the (rows, cols) sub-blocks of every block."""
        return BlockOperator(self.blocks[:, np.asarray(rows)[:, None], cols])

    def max_abs(self):
        """The largest absolute entry; NaN if any entry is NaN."""
        return float(np.abs(self.blocks).max(initial=0.0))
