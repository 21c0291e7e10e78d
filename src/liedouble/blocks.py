"""Site-blocked linear operators on site-major coordinates.

Band o of an operator on N sites of d coordinates holds (N, d, d) blocks
coupling site j to site j + o (mod N): (A x)_j = sum_o A_o[j] x_{j+o}.
Algebra operators are block diagonal, the loop cocycle's hat adds the
bands +-1 of the central difference, and a base double is N = 1.
A band built by ``np.broadcast_to`` from one (d, d) block (stride 0 along
the sites, like the pairing), or the band of a single site, is uniform: it
applies to a vector as one 2-D product, and the product of two uniform
bands stays uniform.
Products and transposes cost O(N d^3).
"""

import numpy as np

__all__ = ["BlockOperator", "shift"]


def shift(blocks, o):
    """blocks[j + o] at index j, periodically along the first axis; no copy
    on the diagonal or for a uniform band."""
    o %= len(blocks)
    return (blocks if o == 0 or _uniform(blocks)
            else np.concatenate((blocks[o:], blocks[:o])))


def _uniform(blocks):
    # one block serves every site: a single site, or stride 0
    return len(blocks) == 1 or blocks.strides[0] == 0


def _product(a, b):
    if _uniform(a) and _uniform(b):
        return np.broadcast_to(a[0] @ b[0], a.shape)
    return a @ b


class BlockOperator:
    """{offset: (N, d, d) blocks}, or (offset, blocks) pairs, which are
    summed per offset mod N. Supports ``A @ x`` and ``x @ A`` for vectors
    and stacks of them, ``A @ B``, ``A.T``, sums and scalar multiples."""

    __array_ufunc__ = None  # ndarray @ operator defers to __rmatmul__

    def __init__(self, bands):
        self.bands = {}
        for o, blocks in (bands.items() if isinstance(bands, dict) else bands):
            self.n_sites, self.site_dim = blocks.shape[:2]
            o %= self.n_sites
            self.bands[o] = blocks + self.bands[o] if o in self.bands \
                else blocks

    @property
    def blocks(self):
        """The (N, d, d) diagonal blocks."""
        return self.bands[0]

    @property
    def T(self):
        # block (j, j + o) moves to (j + o, j): offset -o, row j + o
        return BlockOperator({-o: shift(b, -o).swapaxes(1, 2)
                              for o, b in self.bands.items()})

    def _apply(self, x, transpose=False):
        # A x sums A_o[j] x_{j+o}; A^T x sums A_o[j-o]^T x_{j-o}
        if len(self.bands) == 1 and 0 in self.bands:
            b = self.bands[0]
            if _uniform(b) and x.ndim == 1:
                rows = x.reshape(self.n_sites, self.site_dim)
                return (rows @ (b[0] if transpose else b[0].T)).reshape(-1)
            return ((b.swapaxes(1, 2) if transpose else b)
                    @ x.reshape(self.n_sites, self.site_dim, -1)).reshape(
                        x.shape)
        xs = x.reshape(self.n_sites, self.site_dim, -1)
        out = 0.0
        for o, b in self.bands.items():
            out = out + (shift(b, -o).swapaxes(1, 2) @ shift(xs, -o)
                         if transpose else b @ shift(xs, o))
        return out.reshape(x.shape)

    def __matmul__(self, other):
        if isinstance(other, BlockOperator):
            return BlockOperator([(o1 + o2, _product(a, shift(b, o1)))
                                  for o1, a in self.bands.items()
                                  for o2, b in other.bands.items()])
        return self._apply(np.asarray(other, dtype=float))

    def __rmatmul__(self, x):
        return self._apply(np.asarray(x, dtype=float).T, transpose=True).T

    def __add__(self, other):
        return BlockOperator([*self.bands.items(), *other.bands.items()])

    def __mul__(self, scalar):
        return BlockOperator({o: scalar * b for o, b in self.bands.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return -1.0 * self

    def __sub__(self, other):
        return self + -other

    def restrict(self, rows, cols):
        """The operator of the (rows, cols) sub-blocks of every block."""
        return BlockOperator({o: b[:, np.asarray(rows)[:, None], cols]
                              for o, b in self.bands.items()})

    def max_abs(self):
        """The largest absolute entry; NaN if any band holds a NaN."""
        return float(np.max([np.abs(b).max(initial=0.0)
                             for b in self.bands.values()]))
