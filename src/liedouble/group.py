"""Matrix-group layer over a BasisAlgebra: exponential, adjoints, the global
factorization g = g+ g- (``GroupPoint.factors``, from which the dressing
actions are read off), and coadjoint group 1-cocycles, each given by its
2-cocycle, its value and the pullback of a vector through its exact
inverse-point derivative.

A point is an (N, m, m) site stack, N = 1 on a base double, and K points
are one (K, N, m, m) stack, which every operation reads from its input;
the exponential, the inverse and the factorization are the algebra's hooks
on it, and Ad_g is the (..., N, d, d) stack of its site blocks, applied
with ``np.matvec`` (and its transpose with ``np.vecmat``). Products of
(..., 2, 2) stacks use the explicit two-term column form (``matmul``);
numpy's complex matmul is several times slower on such small matrices.
The pairing P is ad-invariant, Ad_g^T P Ad_g = P, so
Ad_g^{-1} = P^{-1} Ad_g^T P needs no solve. A point caches its inverse,
adjoint and factors; ``g.inv().inv()`` is ``g`` itself while ``g`` lives.
What a cocycle's value at g^{-1} and its derivative at g share (the
coboundary's C(g^{-1}), the lattice log-derivative) is kept for the last
point that asked, so an RKMK4 stage point computes it once.
"""

import weakref

import numpy as np

from .algebra import TwoCocycle, _max_abs, _missing_hook

__all__ = ["GroupPoint", "GroupCocycle", "identity", "exp", "adjoint",
           "coadjoint_star", "kernel_check", "random_point"]

FACTOR_TOL = 1e-10
MEMBER_TOL = 1e-8
KERNEL_TOL = 1e-10


class FactorizationError(RuntimeError):
    pass


class GroupPoint:
    """Immutable group element in the registered faithful representation.

    ``matrix`` is an (N, m, m) ndarray, one matrix per site, N = 1 on a
    base double, or a (..., N, m, m) stack of points; operations act site
    by site, and ``factors`` and ``member`` judge the whole stack. It is
    stored as given, not converted, as a flow step builds several points:
    pass ``np.asarray`` of a list.
    """

    __slots__ = ("algebra", "matrix", "_factors", "_ad", "_inv", "_inverts",
                 "__weakref__")

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = matrix
        self._factors = self._ad = self._inv = None
        self._inverts = None  # a weak reference to the point this inverts

    def mul(self, other):
        return GroupPoint(self.algebra, matmul(self.matrix, other.matrix))

    def inv(self):
        inv = self._inv
        if inv is None:
            inv = self._inverts and self._inverts()
            if inv is None:
                inv = self._inv = GroupPoint(
                    self.algebra, self.algebra.inverse(self.matrix))
                # a weak back-reference: g.inv().inv() is g, without a cycle
                inv._inverts = weakref.ref(self)
        return inv

    def ad_matrix(self):
        """The (..., N, d, d) site blocks of the adjoint operator, cached;
        site j of a lattice point conjugates only site j."""
        if self._ad is None:
            self._ad = self.algebra.sandwich(self.matrix, self.inv().matrix)
        return self._ad

    def factors(self):
        if self._factors is None:
            gp, gm = self.algebra.factorizer(self.matrix)
            resid = _max_abs(matmul(gp, gm) - self.matrix)
            # written as "not <=" so that a NaN residual fails
            if not resid <= FACTOR_TOL:
                raise FactorizationError(
                    "factorization residual %.3e exceeds %.1e"
                    % (resid, FACTOR_TOL))
            self._factors = (GroupPoint(self.algebra, gp),
                             GroupPoint(self.algebra, gm))
        return self._factors

    def member(self, side):
        pred = self.algebra.group_memberships.get(side) or _missing_hook(
            self.algebra.name, side + " membership")
        return bool(pred(self.matrix, MEMBER_TOL))


def matmul(a, b):
    """a @ b for (..., m, m) stacks; 2 x 2 matrices as the sum of two
    column-times-row products."""
    if a.shape[-1] == 2:
        return a[..., :1] * b[..., :1, :] + a[..., 1:] * b[..., 1:, :]
    return a @ b


def _memo_last(fn):
    """fn of a point, kept for the last point it saw. The memo holds that
    point, so the identity test never meets a recycled object, and makes
    the kept arrays read-only, so no caller edits them in place."""
    last = [None, None]

    def memo(point):
        if last[0] is not point:
            out = fn(point)
            for arr in out if type(out) is tuple else (out,):
                arr.flags.writeable = False
            last[:] = point, out
        return last[1]
    return memo


def identity(algebra):
    return GroupPoint(algebra, algebra.identity_matrix.copy())


def exp(algebra, x, t=1.0):
    """exp(t x) of (..., N, d) coordinates or of a base double's (d,)."""
    m = algebra.exponential(t * algebra.vec_to_mat(x))
    return GroupPoint(algebra, m if m.ndim > 2 else m[None])


def adjoint(g, x):
    return np.matvec(g.ad_matrix(), x)


def coadjoint_star(g, eta):
    """Transpose convention: <Ad*_g eta, X> = <eta, Ad_g X>."""
    return np.vecmat(eta, g.ad_matrix())


class GroupCocycle:
    """Coadjoint 1-cocycle C: G -> g* with C(gh) = Ad*_{g^{-1}} C(h) + C(g).

    A cocycle is three things: its algebra 2-cocycle (hat = -dC|_e), its
    value, and the exact derivative of that value at the inverse point,
    given as its transpose applied to a vector (``differential_inv``).
    ``zero``, ``coboundary`` and ``liedouble.loop.loop_group_cocycle``
    supply all three.
    """

    def __init__(self, infinitesimal, value, differential_inv):
        self._infinitesimal = infinitesimal
        self._value = value
        self._differential_inv = differential_inv

    @classmethod
    def zero(cls, algebra):
        def value(g):
            return np.zeros(g.matrix.shape[:-2] + (algebra.site_dim,))

        def differential_inv(g, delta):
            return np.zeros(np.broadcast_shapes(value(g).shape, delta.shape))

        return cls(TwoCocycle.zero(algebra), value, differential_inv)

    @classmethod
    def coboundary(cls, algebra, mu0):
        mu0 = np.reshape(np.asarray(mu0, dtype=float), algebra.shape)
        c2 = TwoCocycle.coboundary(algebra, mu0)

        @_memo_last
        def value(g):
            # C(g) = mu0 - Ad*_{g^{-1}} mu0; this sign makes the 1-cocycle
            # property exact and -dC|_e equal to the hat of the 2-cocycle
            return mu0 - coadjoint_star(g.inv(), mu0)

        def differential_inv(g, delta):
            # the exact 1-cocycle property gives the derivative
            # X -> coad(X, C(g^{-1})) + hat(X), whose transpose takes delta
            # to -coad(delta, C(g^{-1})) - hat(delta), hat being
            # antisymmetric; the coboundary's hat is -coad(., mu0), so this
            # is one coadjoint term
            return algebra.coad(delta, mu0 - value(g.inv()))

        return cls(c2, value, differential_inv)

    def value(self, g):
        return self._value(g)

    def infinitesimal(self):
        """The algebra 2-cocycle with hat = -dC|_e."""
        return self._infinitesimal

    def differential_inv(self, g, delta):
        """The covector M^T delta, where M is the exact derivative of C at
        the inverse point, M X = d/dt C((g exp(tX))^{-1}) at t = 0: the
        pullback of delta, which is all a differential needs of M."""
        return self._differential_inv(g, delta)


def one_cocycle_residual(cocycle, g, h):
    """C(gh) - (Ad*_{g^{-1}} C(h) + C(g)), zero for an exact cocycle."""
    return cocycle.value(g.mul(h)) - (coadjoint_star(g.inv(), cocycle.value(h))
                                      + cocycle.value(g))


def kernel_check(cocycle, g_minus):
    return _max_abs(cocycle.value(g_minus)) < KERNEL_TOL


def random_point(algebra, rng, scale=0.6, batch=None):
    """A generic factorizable point exp(X+) exp(X-) with bounded coords;
    ``batch`` = K stacks K of them, drawn as K single calls draw."""
    lead = () if batch is None else (batch,)
    x = scale * rng.standard_normal(lead + (2,) + algebra.shape)
    xp = algebra.project(x[..., 0, :, :], "plus")
    xm = algebra.project(x[..., 1, :, :], "minus")
    return exp(algebra, xp).mul(exp(algebra, xm))
