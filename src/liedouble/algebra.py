"""Manin triples as concrete basis data.

A ``BasisAlgebra`` is a finite-dimensional real Lie algebra g = g+ (+) g-
with an ad-invariant nondegenerate pairing making both summands isotropic.
Vectors and covectors are plain numpy arrays of coordinates in the chosen
basis / dual basis; the pairing of a covector with a vector is the Euclidean
dot of coordinates, so all metric content lives in the ``pairing`` matrix.

Every algebra is a lattice of identical sites: a base double is one site,
and a periodic lattice loop algebra (see ``liedouble.loop``) repeats the
base double on N sites. Coordinates are (N, d) arrays, ``shape``, with
optional leading batch axes, one per point of a stack (``pair`` pairs per
point); the algebra operations act on the last axis, so a base double also
takes a flat (d,) vector, and a flat (N d,) vector of a loop is refused
with a ``ValueError``. Operators are plain arrays: one (d, d) block when
every site carries the same one (the pairing, its inverse, the g+/g-
selectors), applied as ``np.dot(x, A)`` since these blocks are symmetric;
otherwise an (..., N, d, d) stack of site blocks (``ad``, ``bracket_form``),
applied with ``np.matvec``. Matrices are (..., N, m, m) site stacks, N = 1
on a base double, and the built-in doubles carry closed-form group kernels
on them: the exponential, whose scalars are closed forms too
(a series remains only where (sinh(s)/s - 1)/s^2 cancels near zero), the
inverse and the factorization. No ``numpy.linalg`` call is left on their
flow path. With a matrix representation, ``sandwich``, the kernel of the
group adjoint, is one real matmul against a tensor built once from the basis
matrices and their dual basis, complex entries read as (Re, Im) pairs. A
declared algebra has no matrix representation and stays at the algebra
level.
"""

import json
import math

import numpy as np

__all__ = ["BasisAlgebra", "TwoCocycle", "algebra_from_matrices",
           "algebra_from_declaration", "get_algebra", "load_algebra",
           "is_character", "validate_manin", "BUILTIN_ALGEBRAS"]

STRUCTURE_TOL = 1e-12  # of the Manin axioms, exchange and character tests


class BasisAlgebra:
    """A Lie algebra with a fixed basis adapted to the Manin split.

    The constructor takes the data of one site: labels, pairing, the
    plus/minus index split, the (d, d, d) structure constants with
    [e_i, e_j] = sum_k c[i, j, k] e_k and optionally a faithful matrix
    representation as a (d, m, m) stack of basis matrices. With a
    ``lattice`` the algebra is the sum of ``lattice.n_sites`` copies,
    paired by the site average; without one it is the single site.
    ``site_plus`` and ``site_minus`` select the g+ and g- coordinates of a
    site and together exhaust it; ``plus_indices`` and ``minus_indices``
    are the same split of the flattened (N d,) coordinates. The group
    hooks map (..., m, m) stacks: ``factorizer`` to the (g+, g-) factor
    stacks, ``exponential`` to the matrix exponentials, ``inverse`` to the
    inverse matrices, ``group_memberships["plus"]`` and ``["minus"]`` to
    one verdict. The group layer calls them directly, so it needs basis
    matrices and all five hooks, as the built-in doubles and their loops
    have; a missing hook raises a ``ValueError`` when called.
    """

    def __init__(self, name, labels, pairing, plus_indices, minus_indices,
                 structure_constants, basis_matrices=None, lattice=None,
                 group_memberships=None, factorizer=None, exponential=None,
                 inverse=None):
        self.name = name
        self.lattice = lattice
        self.n_sites = n = 1 if lattice is None else lattice.n_sites
        self.site_dim = d = len(labels)
        self.shape = (n, d)
        self.dim = n * d
        self.labels = (list(labels) if lattice is None else
                       ["%s@%d" % (lab, j) for j in range(n)
                        for lab in labels])
        pairing = np.asarray(pairing, dtype=float)
        if pairing.shape != (d, d):
            raise ValueError("pairing shape does not match dim")
        c = self.structure_constants = np.asarray(structure_constants,
                                                  dtype=float)
        if c.shape != (d, d, d):
            raise ValueError("structure constants shape does not match dim")
        self.pairing = pairing / n
        self.pairing_inv = np.linalg.inv(self.pairing)
        self.site_plus = np.asarray(plus_indices, dtype=int)
        self.site_minus = np.asarray(minus_indices, dtype=int)
        offsets = d * np.arange(n)[:, None]
        self.plus_indices = (offsets + self.site_plus).reshape(-1)
        self.minus_indices = (offsets + self.site_minus).reshape(-1)
        self._masks = {side: np.isin(np.arange(d), idx) for side, idx in
                       (("plus", self.site_plus), ("minus", self.site_minus))}
        self._contractions()
        self.basis_matrices = mats = (None if basis_matrices is None
                                      else np.asarray(basis_matrices))
        if mats is not None:
            self._complex = np.iscomplexobj(mats)
            self._basis_rows = mats.reshape(d, -1)
            self._dual_basis = np.linalg.pinv(self._entries(self._basis_rows))
            self._sandwich_tensor = _sandwich_tensor(self)
            self.identity_matrix = np.broadcast_to(
                np.eye(mats.shape[1], dtype=mats.dtype),
                (n,) + mats.shape[1:]).copy()
        self.group_memberships = group_memberships or {}
        self.factorizer = factorizer or _missing_hook(name, "factorizer")
        self.exponential = exponential or _missing_hook(name, "exponential")
        self.inverse = inverse or _missing_hook(name, "inverse")

    def _contractions(self):
        """The structure constants as three (d, d*d) matrices, so that one
        contraction with a vector is one product and one reshape. Products
        of (..., d) coordinates with a 2-D matrix use ``np.dot``, which on
        small arrays costs about half of ``@``."""
        d, c = self.site_dim, self.structure_constants
        # t[j, k] = sum_i x_i c[i, j, k]
        self._c_left = c.reshape(d, d * d)
        # ad(x)[k, j] = sum_i x_i c[i, j, k]
        self._c_ad = c.transpose(0, 2, 1).reshape(d, d * d)
        # K[i, j] = sum_k c[i, j, k] eta_k
        self._c_form = np.ascontiguousarray(c.reshape(d * d, d).T)
        self._blocks = (d, d)

    # --- core bilinear operations -------------------------------------

    def bracket(self, x, y):
        return np.matvec(self.ad(x), y)

    def ad(self, x):
        """The (..., d, d) site blocks of ad_X: np.matvec(ad(x), y) is
        bracket(x, y)."""
        t = np.dot(x, self._c_ad)
        return t.reshape(t.shape[:-1] + self._blocks)

    def bracket_form(self, eta):
        """K[i, j] = <eta, [e_i, e_j]> as (..., d, d) site blocks."""
        t = np.dot(eta, self._c_form)
        return t.reshape(t.shape[:-1] + self._blocks)

    def pair(self, x, y):
        """(x, y)_g, one value per point of a batch."""
        return _dot(x, self.psi(y))

    # --- identifications and projections ------------------------------

    def psi(self, x):
        """g -> g* via the pairing: <psi(x), y> = (x, y)_g."""
        return np.dot(x, self.pairing)

    def psi_bar(self, eta):
        """Inverse of psi."""
        return np.dot(eta, self.pairing_inv)

    def project(self, x, side):
        """The g+- part of a vector, or the g+-* part of a covector."""
        try:
            mask = self._masks[side]
        except KeyError:
            raise ValueError("side must be 'plus' or 'minus'") from None
        return np.where(mask, x, 0.0)

    def selector(self, side):
        """The coordinate projection onto g+ or g- as a (d, d) block."""
        return np.diag(self.project(np.ones(self.site_dim), side))

    # --- coadjoint action ----------------------------------------------

    def coad(self, x, eta):
        """Transpose-derivative convention: <coad(x, eta), y> = <eta, [x, y]>.

        This is d/dt|_0 of eta ∘ Ad_{exp(tx)}, the one coadjoint convention
        of the library; the infinitesimal coadjoint action is its negative.
        """
        t = np.dot(x, self._c_left)
        return np.matvec(t.reshape(t.shape[:-1] + self._blocks), eta)

    # --- matrix representation -----------------------------------------

    def _no_representation(self):
        return ValueError("algebra %r has no matrix representation"
                          % self.name)

    def vec_to_mat(self, x):
        """The (..., m, m) matrices of (..., d) coordinates."""
        if self.basis_matrices is None:
            raise self._no_representation()
        m = np.dot(x, self._basis_rows)
        return m.reshape(m.shape[:-1] + self.basis_matrices.shape[1:])

    def mat_to_vec(self, m):
        """Coordinates of (..., m, m) matrices, shaped (..., d): the site
        stack of a point maps to (N, d) coordinates."""
        m = np.asarray(m)
        return self._coords(m.reshape(m.shape[:-2] + (-1,)))

    def vec_to_mat_transpose(self, w):
        """The covector of x -> Re sum(w * vec_to_mat(x)), for w shaped
        like ``vec_to_mat``'s output: the transpose of ``vec_to_mat``."""
        if self.basis_matrices is None:
            raise self._no_representation()
        w = w.reshape(w.shape[:-2] + (-1,))
        return (w @ self._basis_rows.T).real

    def _entries(self, v):
        """Real parts, or (Re, Im) pairs for a complex representation."""
        if self._complex:
            return np.ascontiguousarray(v, dtype=complex).view(float)
        return v.real

    def _entries_transpose(self, u):
        """The w with Re sum(w * v) = u . _entries(v)."""
        if self._complex:
            return np.ascontiguousarray(u).view(complex).conj()
        return u

    def _coords(self, v):
        # coordinates of flattened (..., m*m) matrices
        if self.basis_matrices is None:
            raise self._no_representation()
        return self._entries(v) @ self._dual_basis

    def sandwich(self, left, right):
        """(..., N, d, d) blocks of X -> left_j X right_j for (..., N, m, m)
        stacks: the entries of kron(left, right^T), left_ab right_cd,
        contracted with the algebra's one real tensor."""
        kron = left[..., None, None] * right[..., None, None, :, :]
        # a fresh product is contiguous, so its entries are a float view
        t = (kron.reshape(-1, left.shape[-1] ** 4).view(float)
             @ self._sandwich_tensor)
        return t.reshape(left.shape[:-2] + self._blocks)


def _missing_hook(name, hook):
    def missing(*args):
        raise ValueError("algebra %r has no %s hook" % (name, hook))
    return missing


def _sandwich_tensor(a):
    """The (m^4, d^2) tensor, (2 m^4, d^2) for complex basis matrices, of
    ``BasisAlgebra.sandwich``: coordinate k of A E_i B is
    Re sum_abcd A_ab B_cd (E_i)_bc D_k,ad = Re sum(kron(A, B^T) * w) for
    the complex dual basis D, which is entries(kron) . entries(conj w)."""
    mats = a.basis_matrices
    d, m = mats.shape[0], mats.shape[-1]
    dual = a._entries_transpose(a._dual_basis.T).T
    w = np.einsum("ibc,adk->abcdki", mats,
                  dual.reshape(m, m, d)).reshape(m ** 4, d * d)
    return a._entries(w.conj().T).T


class TwoCocycle:
    """Antisymmetric 2-cocycle c(X,Y) = <c_hat(X), Y>, with ``hat`` of a
    vector or of a (k, N, d) stack of rows. ``zero`` and ``coboundary``
    build the two cocycles of any double, and ``matrix`` holds the site
    blocks of their c_hat, applied with ``np.matvec``; the lattice cocycle
    of ``liedouble.loop.loop_two_cocycle`` applies its uniform ``matrix``
    after the central difference."""

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = matrix

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, np.zeros((algebra.site_dim, algebra.site_dim)))

    @classmethod
    def coboundary(cls, algebra, mu0):
        # row i is -coad(e_i, mu0) at every site
        mu0 = np.reshape(np.asarray(mu0, dtype=float), algebra.shape)
        return cls(algebra, -algebra.bracket_form(mu0).mT)

    def hat(self, x):
        return np.matvec(self.matrix, x)

    def eval(self, x, y):
        """c(x, y), one value per point."""
        return _dot(self.hat(x), y)

    def is_isotropic_exchanging(self):
        """True if c_hat maps g+- into the dual of the opposite factor.

        This is the hypothesis under which the restricted bracket carries no
        cocycle terms; zero cocycles satisfy it trivially. It reads
        ``matrix``, which is exact for the lattice cocycle too: the central
        difference acts along the sites and keeps each site's split.
        """
        a = self.algebra
        return all(_below(_sub_blocks(self.matrix, s, s), STRUCTURE_TOL)
                   for s in (a.site_plus, a.site_minus))


def _sub_blocks(op, rows, cols):
    """The (rows, cols) sub-blocks of a (d, d) block or a block stack."""
    return op[..., np.asarray(rows)[:, None], cols]


def _flat(x):
    """(..., N, d) coordinates as (..., N d) rows; (d,) stays as it is."""
    return x.reshape(x.shape[:-2] + (-1,))


def _dot(eta, x):
    """<eta, x> per point: one dot over each point's (N d) coordinates."""
    return np.vecdot(_flat(eta), _flat(x))


def _max_abs(a):
    """The largest absolute entry, 0 for no entry; NaN if any entry is
    NaN. It calls the reduction that ``ndarray.max`` wraps directly."""
    return float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0))


def _below(residual, bound):
    """The one verdict on a residual: its largest absolute entry is
    strictly below ``bound``. A NaN entry fails, and so does equality."""
    return bool(_max_abs(residual) < bound)


def cocycle_identity_residual(cocycle, x, y, z):
    """c([x,y],z) + c([y,z],x) + c([z,x],y)."""
    a = cocycle.algebra
    return (cocycle.eval(a.bracket(x, y), z)
            + cocycle.eval(a.bracket(y, z), x)
            + cocycle.eval(a.bracket(z, x), y))


def is_character(algebra, eta_minus):
    """True iff eta_minus vanishes on [g-, g-].

    eta_minus must be supported on the dual of g- (its g+* projection zero).
    """
    if not _below(algebra.project(eta_minus, "plus"), STRUCTURE_TOL):
        raise ValueError("eta_minus has support outside the dual of g-")
    sm = algebra.site_minus
    return _below(_sub_blocks(algebra.bracket_form(eta_minus), sm, sm),
                  STRUCTURE_TOL)


# --- validation ---------------------------------------------------------

def _manin_bound(check):
    # the pairing's condition number is a well-posedness bound, not a residual
    return 1e12 if check == "pairing_condition" else STRUCTURE_TOL


def validate_manin(a):
    """Run the structural invariants; returns {check: residual} plus 'passed'.

    The bracket axioms and the split are checked on the per-site data,
    which the lattice repeats; ad-invariance is checked against the
    pairing's block, which every site shares.
    """
    c = a.structure_constants
    p = a.pairing
    sp, sm = a.site_plus, a.site_minus
    res = {}
    res["bracket_antisymmetry"] = _max_abs(c + c.transpose(1, 0, 2))
    jac = np.einsum("ijm,mkl->ijkl", c, c)
    res["jacobi"] = _max_abs(jac + jac.transpose(1, 2, 0, 3)
                             + jac.transpose(2, 0, 1, 3))
    # t[i, j, l] = <[e_i, e_j], e_l>, antisymmetric in (j, l) by invariance
    t = np.einsum("ijm,ml->ijl", c, p)
    res["pairing_ad_invariance"] = _max_abs(t + t.transpose(0, 2, 1))
    res["closure_plus"] = _max_abs(c[np.ix_(sp, sp, sm)])
    res["closure_minus"] = _max_abs(c[np.ix_(sm, sm, sp)])
    res["pairing_symmetry"] = _max_abs(p - p.T)
    sv = np.linalg.svd(p, compute_uv=False)
    res["pairing_condition"] = float(sv.max() / sv.min())
    res["isotropy_plus"] = _max_abs(_sub_blocks(p, sp, sp))
    res["isotropy_minus"] = _max_abs(_sub_blocks(p, sm, sm))
    res["index_partition"] = float(sorted([*sp, *sm]) != [*range(a.site_dim)])
    failures = [k for k, v in res.items() if not _below(v, _manin_bound(k))]
    return {"checks": res, "failures": failures, "passed": not failures}


# --- constructors --------------------------------------------------------

def algebra_from_matrices(name, labels, basis_matrices, pairing,
                          plus_indices, minus_indices, **kw):
    """Build a BasisAlgebra from a faithful matrix representation.

    Structure constants are extracted numerically, which guarantees the
    coordinate bracket matches matrix commutators.
    """
    mats = np.asarray(basis_matrices)
    dim = mats.shape[0]
    a = BasisAlgebra(name, labels, pairing, plus_indices, minus_indices,
                     np.zeros((dim, dim, dim)), basis_matrices=mats, **kw)
    # the commutator coordinates need the representation's dual basis,
    # which the algebra derives from its basis matrices
    comm = mats[:, None] @ mats[None, :] - mats[None, :] @ mats[:, None]
    a.structure_constants[...] = a.mat_to_vec(comm)
    a._contractions()
    return a


def _so3_cotangent():
    """Semidirect double so(3) (semidirect) so(3)*: abelian minus factor.

    Represented on 4x4 real matrices [[hat(x), mu], [0, 0]] and paired by
    ((x, mu), (y, nu)) = <mu, y> + <nu, x>; the group is rotations with
    translations, factoring globally as g = (R,0)(I, v).
    """
    mats = np.zeros((6, 4, 4))
    eps = np.cross(np.eye(3)[:, None], np.eye(3))  # eps[i, j, k]
    mats[:3, :3, :3] = eps.transpose(2, 1, 0)      # hat(e_i)[j, k]
    mats[3:, :3, 3] = np.eye(3)
    labels = ["e1", "e2", "e3", "f1", "f2", "f3"]
    return algebra_from_matrices(
        "so3-cotangent", labels, mats, np.kron([[0, 1], [1, 0]], np.eye(3)),
        [0, 1, 2], [3, 4, 5],
        group_memberships={
            "plus": _so3_member_plus, "minus": _so3_member_minus},
        factorizer=_so3_factorize, exponential=_so3_exp, inverse=_so3_inv)


# the Taylor coefficients of (sinh(s)/s - 1)/s^2 in s^2, highest first
_SINHC_REMAINDER = [1.0 / math.factorial(2 * k + 3)
                    for k in range(9, -1, -1)]


def _cosh_sinhc(s2, remainders=False):
    """(cosh s, sinh(s)/s) from s^2, optionally with (cosh s - 1)/s^2 and
    (sinh(s)/s - 1)/s^2; all are even in s, so the root's sign does not
    matter. The first three are closed forms: sinh(s)/s is 1 exactly at
    s = 0, and (cosh s - 1)/s^2 = sinhc(s/2)^2 / 2 does not cancel. The
    last cancels near zero, where |s^2| < 1 sums its Taylor series."""
    real = s2.dtype.kind != "c"
    s = np.sqrt(s2 + 0j if real else s2)
    # adding the zero mask turns 0/0 into 1/1 and leaves s != 0 exact
    zero = np.logical_not(s)
    out = [np.cosh(s), (np.sinh(s) + zero) / (s + zero)]
    if remainders:
        near = np.abs(s2) < 1.0
        half = 0.5 * s
        out += [0.5 * ((np.sinh(half) + zero) / (half + zero)) ** 2,
                np.where(near, np.polyval(_SINHC_REMAINDER,
                                          np.where(near, s2, 0.0)),
                         (out[1] - 1.0) / np.where(near, 1.0, s2))]
    if real:
        out = [f.real for f in out]  # s^2 < 0 is a real angle, s = i t
    return out


def _so3_exp(m):
    """Rodrigues: exp [[W, v], [0, 0]] = [[R, V v], [0, 1]] with
    R = I + sinc W + B W^2 and V = I + B W + C W^2, B and C the series
    (1 - cos t)/t^2 and (t - sin t)/t^3 of the angle t."""
    w = m[..., :3, :3]
    w2 = w @ w
    t2 = -0.5 * np.trace(w2, axis1=-2, axis2=-1)
    _, sinc, b, c = _cosh_sinhc(-t2, remainders=True)
    sinc, b, c = (f[..., None, None] for f in (sinc, b, c))
    out = np.broadcast_to(np.eye(4), m.shape).copy()
    out[..., :3, :3] += sinc * w + b * w2
    out[..., :3, 3:] = (np.eye(3) + b * w + c * w2) @ m[..., :3, 3:]
    return out


def _so3_member_plus(m, tol):
    r = m[..., :3, :3]
    return (_below(m[..., :3, 3], tol)
            and _below(r.swapaxes(-1, -2) @ r - np.eye(3), tol)
            and _below(np.linalg.det(r) - 1.0, tol)
            and _below(m[..., 3, :] - [0, 0, 0, 1], tol))


def _so3_member_minus(m, tol):
    return (_below(m[..., :3, :3] - np.eye(3), tol)
            and _below(m[..., 3, :] - [0, 0, 0, 1], tol))


_CYCLE = np.array([[1], [2], [0]])


def _inv3(r):
    """adj(r) / det(r) for (..., 3, 3) stacks; entry (i, j) of the
    cofactor matrix is r[i+1, j+1] r[i+2, j+2] - r[i+1, j+2] r[i+2, j+1].
    On a rotation it is r^T, and it stays exact off the group, where the
    ambient RK4 oracle's stage points lie."""
    p, q = _CYCLE, _CYCLE[[1, 2, 0]]
    cof = r[..., p, p.T] * r[..., q, q.T] - r[..., p, q.T] * r[..., q, p.T]
    det = (r[..., 0, :] * cof[..., 0, :]).sum(-1)
    return cof.swapaxes(-1, -2) / det[..., None, None]


def _so3_inv(m):
    """[[R, v], [0, 1]]^{-1} = [[R^{-1}, -R^{-1} v], [0, 1]]."""
    rinv = _inv3(m[..., :3, :3])
    out = np.broadcast_to(np.eye(4), m.shape).copy()
    out[..., :3, :3] = rinv
    out[..., :3, 3:] = -rinv @ m[..., :3, 3:]
    return out


def _so3_factorize(m):
    r = m[..., :3, :3]
    gp = np.broadcast_to(np.eye(4), m.shape).copy()
    gp[..., :3, :3] = r
    gm = np.broadcast_to(np.eye(4), m.shape).copy()
    gm[..., :3, 3:] = _inv3(r) @ m[..., :3, 3:]
    return gp, gm


def _sl2c_iwasawa():
    """sl(2,C) as a real algebra: su(2) + upper-triangular real-diagonal part.

    Pairing is -2 Im tr(XY); the group factorization SL(2,C) = SU(2) SB(2,C)
    is global (Gram-Schmidt with positive real diagonal).
    """
    # -i/2 times the Pauli matrices, then the Borel generators
    mats = np.array([[[0, -.5j], [-.5j, 0]], [[0, -.5], [.5, 0]],
                     [[-.5j, 0], [0, .5j]], [[.5, 0], [0, -.5]],
                     [[0, 1], [0, 0]], [[0, 1j], [0, 0]]])
    pairing = -2.0 * np.imag(np.einsum("iab,jba->ij", mats, mats))
    labels = ["e1", "e2", "e3", "b1", "b2", "b3"]
    return algebra_from_matrices(
        "sl2c-iwasawa", labels, mats, pairing, [0, 1, 2], [3, 4, 5],
        group_memberships={"plus": _su2_member, "minus": _sb2_member},
        factorizer=_sl2c_factorize, exponential=_sl2c_exp, inverse=_sl2c_inv)


def _su2_member(m, tol):
    return (_below(m @ m.conj().swapaxes(-1, -2) - np.eye(2), tol)
            and _below(np.linalg.det(m) - 1.0, tol))


def _sb2_member(m, tol):
    return (_below(m[..., 1, 0], tol)
            and _below(np.linalg.det(m) - 1.0, tol)
            and _below(m[..., 0, 0].imag, tol)
            and (m[..., 0, 0].real > 0).all())


_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_EYE2 = np.eye(2)


def _sl2c_exp(m):
    """Traceless X has X^2 = -det(X) I, so exp X = cosh(s) I + sinh(s)/s X
    with s^2 = -det X; the b2/b3 directions are nilpotent (s = 0)."""
    s2 = m[..., 0, 1] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 1]
    cosh, sinhc = _cosh_sinhc(s2)
    return sinhc[..., None, None] * m + cosh[..., None, None] * _EYE2


def _sl2c_inv(m):
    """The adjugate [[d, -b], [-c, a]] over the determinant, which is 1 on
    the group; dividing keeps a declared matrix's inverse exact too."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return m[..., ::-1, ::-1].mT * (_ADJUGATE_SIGNS / det[..., None, None])


def _sl2c_factorize(m):
    """Gram-Schmidt on the first column (a, c): with (q0, q1) = (a, c)/n,
    n = |(a, c)|, q = [[q0, -conj q1], [q1, conj q0]] lies in SU(2) and
    r = q^H m = [[n, conj q0 b + conj q1 d], [0, q0 d - q1 b]] in SB(2,C)."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    n = np.hypot(np.abs(a), np.abs(c))
    q0, q1 = a / n, c / n
    c0, c1 = np.conj(q0), np.conj(q1)
    q, r = np.empty(m.shape, m.dtype), np.zeros(m.shape, m.dtype)
    q[..., 0, 0], q[..., 1, 0] = q0, q1
    q[..., 0, 1], q[..., 1, 1] = -c1, c0
    r[..., 0, 0] = n
    r[..., 0, 1] = c0 * b + c1 * d
    r[..., 1, 1] = q0 * d - q1 * b
    return q, r


BUILTIN_ALGEBRAS = {
    "so3-cotangent": _so3_cotangent,
    "sl2c-iwasawa": _sl2c_iwasawa,
}


def get_algebra(name):
    try:
        return BUILTIN_ALGEBRAS[name]()
    except KeyError:
        raise KeyError("unknown built-in algebra %r" % name) from None


def algebra_from_declaration(decl):
    """Build a dense algebra from a declaration dict (see README for schema)."""
    required = {"name", "dim", "labels", "structure_constants", "pairing",
                "plus_indices", "minus_indices"}
    for what, keys in (("unknown", set(decl) - required),
                       ("missing", required - set(decl))):
        if keys:
            raise ValueError("%s declaration keys: %s" % (what, sorted(keys)))
    dim = int(decl["dim"])
    if len(decl["labels"]) != dim:
        raise ValueError("labels length does not match dim")
    c = np.zeros((dim, dim, dim))
    for i, j, k, value in decl["structure_constants"]:
        idx = (int(i), int(j), int(k))
        if not all(0 <= n < dim for n in idx):
            raise ValueError("structure constant index %s outside [0, %d)"
                             % (list(idx), dim))
        c[idx] = float(value)
    pairing = np.asarray(decl["pairing"], dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(pairing).all()):
        raise ValueError("structure constants and pairing must be finite")
    return BasisAlgebra(decl["name"], decl["labels"], pairing,
                        decl["plus_indices"], decl["minus_indices"], c)


def load_algebra(source):
    """Resolve a built-in name, a declaration dict, or a JSON file path."""
    if isinstance(source, BasisAlgebra):
        return source
    if isinstance(source, dict):
        return algebra_from_declaration(source)
    if source in BUILTIN_ALGEBRAS:
        return get_algebra(source)
    with open(source) as fh:
        return algebra_from_declaration(json.load(fh))
