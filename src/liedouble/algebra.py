"""Manin triples as concrete basis data.

A ``BasisAlgebra`` is a finite-dimensional real Lie algebra g = g+ (+) g-
with an ad-invariant nondegenerate pairing making both summands isotropic.
Vectors and covectors are plain numpy arrays of coordinates in the chosen
basis / dual basis; the pairing of a covector with a vector is the Euclidean
dot of coordinates, so all metric content lives in the ``pairing`` matrix.

Every algebra is a lattice of identical sites: a base double is one site,
and a periodic lattice loop algebra (see ``liedouble.loop``) repeats the base
double on N sites. Coordinates are site-major, the bracket is the per-site
structure-constant tensor applied at every site, and operators such as
``ad`` are block diagonal over the sites.
"""

import json

import numpy as np

__all__ = [
    "BasisAlgebra",
    "TwoCocycle",
    "algebra_from_matrices",
    "algebra_from_declaration",
    "get_algebra",
    "load_algebra",
    "is_character",
    "validate_manin",
    "BUILTIN_ALGEBRAS",
]


def _block_diag(blocks, shift=0):
    """(N, d, d) blocks -> (N d, N d) matrix, block j at rows j + shift.

    Block rows wrap periodically, so a nonzero shift places the blocks on
    a periodic off-diagonal.
    """
    n, d, _ = blocks.shape
    out = np.zeros((n, d, n, d), dtype=blocks.dtype)
    j = np.arange(n)
    out[(j + shift) % n, :, j, :] = blocks
    return out.reshape(n * d, n * d)


class BasisAlgebra:
    """A Lie algebra with a fixed basis adapted to the Manin split.

    The constructor takes the data of one site: labels, pairing, the
    plus/minus index split, the (d, d, d) structure constants with
    [e_i, e_j] = sum_k c[i, j, k] e_k and optionally a faithful matrix
    representation as a (d, m, m) stack of basis matrices. With a
    ``lattice`` the algebra is the sum of ``lattice.n_sites`` copies in
    site-major coordinates, paired by the site average; without one it is
    the single site. ``plus_indices`` and ``minus_indices`` select the g+
    and g- basis vectors of the whole algebra and together exhaust it.
    """

    def __init__(self, name, labels, pairing, plus_indices, minus_indices,
                 structure_constants, basis_matrices=None, lattice=None,
                 group_memberships=None, factorizer=None):
        self.name = name
        self.lattice = lattice
        self.n_sites = 1 if lattice is None else lattice.n_sites
        self.site_dim = d = len(labels)
        self.dim = self.n_sites * d
        self.labels = (list(labels) if lattice is None else
                       ["%s@%d" % (lab, j) for j in range(self.n_sites)
                        for lab in labels])
        pairing = np.asarray(pairing, dtype=float)
        if pairing.shape != (d, d):
            raise ValueError("pairing shape does not match dim")
        self.structure_constants = np.asarray(structure_constants,
                                              dtype=float)
        if self.structure_constants.shape != (d, d, d):
            raise ValueError("structure constants shape does not match dim")
        self.pairing = np.kron(np.eye(self.n_sites), pairing) / self.n_sites
        offsets = d * np.arange(self.n_sites)[:, None]
        self.plus_indices = (offsets + np.asarray(plus_indices, dtype=int)
                             ).reshape(-1)
        self.minus_indices = (offsets + np.asarray(minus_indices, dtype=int)
                              ).reshape(-1)
        # leading axes of a group point or algebra field: none, or sites
        self._site_axes = () if lattice is None else (self.n_sites,)
        self.basis_matrices = mats = (None if basis_matrices is None
                                      else np.asarray(basis_matrices))
        if mats is not None:
            flat = mats.reshape(d, -1)
            if np.iscomplexobj(mats):
                flat = np.hstack([flat.real, flat.imag])
            self._dual_basis = np.linalg.pinv(flat.T).T
            self.identity_matrix = np.broadcast_to(
                np.eye(mats.shape[1], dtype=mats.dtype),
                self._site_axes + mats.shape[1:]).copy()
        # optional hooks used by the group layer; the factorizer maps a
        # (..., m, m) stack to its (g+, g-) factor stacks
        self.group_memberships = group_memberships or {}
        self.factorizer = factorizer
        self._pairing_inv = np.linalg.inv(self.pairing)

    # --- core bilinear operations -------------------------------------

    def _sites(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("vector length does not match algebra dim")
        return x.reshape(self.n_sites, self.site_dim)

    def bracket(self, x, y):
        return np.einsum("ijk,si,sj->sk", self.structure_constants,
                         self._sites(x), self._sites(y)).reshape(self.dim)

    def ad(self, x):
        """Matrix of ad_X on coordinates: ad(x) @ y == bracket(x, y)."""
        return _block_diag(np.einsum("ijk,si->skj", self.structure_constants,
                                     self._sites(x)))

    def bracket_form(self, eta):
        """K[i, j] = <eta, [e_i, e_j]> as a matrix, block diagonal on sites."""
        return _block_diag(np.einsum("ijk,sk->sij", self.structure_constants,
                                     self._sites(eta)))

    def pair(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("vector length does not match algebra dim")
        return float(x @ self.pairing @ y)

    # --- identifications and projections ------------------------------

    def psi(self, x):
        """g -> g* via the pairing: <psi(x), y> = (x, y)_g."""
        return self.pairing @ np.asarray(x, dtype=float)

    def psi_bar(self, eta):
        """Inverse of psi."""
        return self._pairing_inv @ np.asarray(eta, dtype=float)

    def _side_indices(self, side):
        if side == "plus":
            return self.plus_indices
        if side == "minus":
            return self.minus_indices
        raise ValueError("side must be 'plus' or 'minus'")

    def project(self, x, side):
        """The g+- part of a vector, or the g+-* part of a covector."""
        out = np.zeros(self.dim)
        idx = self._side_indices(side)
        out[idx] = np.asarray(x, dtype=float)[idx]
        return out

    # --- coadjoint action ----------------------------------------------

    def coad(self, x, eta):
        """Transpose-derivative convention: <coad(x, eta), y> = <eta, [x, y]>.

        This is d/dt|_0 of eta ∘ Ad_{exp(tx)}, the one coadjoint convention
        of the library; the infinitesimal coadjoint action is its negative.
        """
        return self.ad(x).T @ np.asarray(eta, dtype=float)

    # --- matrix representation -----------------------------------------

    def _require_representation(self):
        if self.basis_matrices is None:
            raise ValueError("algebra %r has no matrix representation"
                             % self.name)

    def vec_to_mat(self, x):
        """The (m, m) matrix of x; an (N, m, m) stack on a lattice."""
        self._require_representation()
        x = np.asarray(x, dtype=float).reshape(self._site_axes
                                               + (self.site_dim,))
        return np.einsum("...i,ijk->...jk", x, self.basis_matrices)

    def mat_to_vec(self, m):
        """Coordinates of the element m (shaped like ``vec_to_mat``'s output).

        Extra leading axes are a batch of elements and map to rows of
        coordinates.
        """
        self._require_representation()
        m = np.asarray(m)
        v = m.reshape(m.shape[:-2] + (-1,))
        if np.iscomplexobj(self.basis_matrices):
            v = np.concatenate([v.real, v.imag], axis=-1)
        else:
            v = v.real
        batch = m.shape[:m.ndim - 2 - len(self._site_axes)]
        return (v @ self._dual_basis).reshape(batch + (self.dim,))

    @property
    def has_representation(self):
        return self.basis_matrices is not None


class TwoCocycle:
    """Antisymmetric 2-cocycle c(X,Y) = <c_hat(X), Y> given by its hat matrix."""

    ZERO = "zero"
    COBOUNDARY = "coboundary"
    LATTICE = "lattice-derivative"

    def __init__(self, algebra, kind, matrix):
        self.algebra = algebra
        self.kind = kind
        self.matrix = np.asarray(matrix, dtype=float)

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, cls.ZERO, np.zeros((algebra.dim, algebra.dim)))

    @classmethod
    def coboundary(cls, algebra, mu0):
        # column i is -coad(e_i, mu0)
        return cls(algebra, cls.COBOUNDARY,
                   -algebra.bracket_form(np.asarray(mu0, dtype=float)).T)

    def hat(self, x):
        return self.matrix @ np.asarray(x, dtype=float)

    def eval(self, x, y):
        return float(self.hat(x) @ np.asarray(y, dtype=float))

    def is_isotropic_exchanging(self, tol=1e-12):
        """True if c_hat maps g+- into the dual of the opposite factor.

        This is the hypothesis under which the restricted bracket carries no
        cocycle terms; zero cocycles satisfy it trivially.
        """
        a = self.algebra
        pp = self.matrix[np.ix_(a.plus_indices, a.plus_indices)]
        mm = self.matrix[np.ix_(a.minus_indices, a.minus_indices)]
        return max(np.abs(pp).max(initial=0.0), np.abs(mm).max(initial=0.0)) < tol


def cocycle_identity_residual(cocycle, x, y, z):
    """c([x,y],z) + c([y,z],x) + c([z,x],y)."""
    a = cocycle.algebra
    return (cocycle.eval(a.bracket(x, y), z)
            + cocycle.eval(a.bracket(y, z), x)
            + cocycle.eval(a.bracket(z, x), y))


def is_character(algebra, eta_minus, tol=1e-12):
    """True iff eta_minus vanishes on [g-, g-].

    eta_minus must be supported on the dual of g- (its g+* projection zero).
    """
    eta_minus = np.asarray(eta_minus, dtype=float)
    sup = algebra.project(eta_minus, "plus")
    if np.abs(sup).max(initial=0.0) > tol:
        raise ValueError("eta_minus has support outside the dual of g-")
    mi = algebra.minus_indices
    form = algebra.bracket_form(eta_minus)[np.ix_(mi, mi)]
    return not np.abs(form).max(initial=0.0) > tol


# --- validation ---------------------------------------------------------

def validate_manin(a, tol=1e-12):
    """Run the structural invariants; returns {check: residual} plus 'passed'.

    The bracket axioms are checked on the per-site structure constants,
    which the lattice repeats; ad-invariance is checked against the full
    pairing, including its couplings between sites.
    """
    c = a.structure_constants
    p = a.pairing
    n, d = a.n_sites, a.site_dim
    res = {}
    res["bracket_antisymmetry"] = float(np.abs(c + c.transpose(1, 0, 2)).max())
    jac = np.einsum("ijm,mkl->ijkl", c, c)
    res["jacobi"] = float(np.abs(jac + jac.transpose(1, 2, 0, 3)
                                 + jac.transpose(2, 0, 1, 3)).max())
    # t[s, i, j, v, l] = <[e_i, e_j] at site s, e_l at site v>; invariance
    # pairs it with the (j, l)-swapped entry at v = s and asks zero elsewhere
    t = np.einsum("ijm,smvl->sijvl", c, p.reshape(n, d, n, d))
    s = np.arange(n)
    diag = t[s, :, :, s, :]
    t[s, :, :, s, :] = diag + diag.transpose(0, 1, 3, 2)
    res["pairing_ad_invariance"] = float(np.abs(t).max())
    pi, mi = a.plus_indices, a.minus_indices
    sp, sm = pi[pi < d], mi[mi < d]  # the split of site 0
    res["closure_plus"] = float(np.abs(c[np.ix_(sp, sp, sm)]).max(initial=0.0))
    res["closure_minus"] = float(np.abs(c[np.ix_(sm, sm, sp)]).max(initial=0.0))
    res["pairing_symmetry"] = float(np.abs(p - p.T).max())
    res["pairing_condition"] = float(np.linalg.cond(p))
    res["isotropy_plus"] = float(np.abs(p[np.ix_(pi, pi)]).max(initial=0.0))
    res["isotropy_minus"] = float(np.abs(p[np.ix_(mi, mi)]).max(initial=0.0))
    res["index_partition"] = float(
        0.0 if sorted(list(pi) + list(mi)) == list(range(a.dim)) else 1.0)
    failures = [k for k, v in res.items()
                if k != "pairing_condition" and v > tol]
    if res["pairing_condition"] > 1e12:
        failures.append("pairing_condition")
    return {"checks": res, "failures": failures, "passed": not failures}


# --- constructors --------------------------------------------------------

def algebra_from_matrices(name, labels, basis_matrices, pairing_fn,
                          plus_indices, minus_indices, **kw):
    """Build a dense BasisAlgebra from a faithful matrix representation.

    Structure constants and the pairing matrix are extracted numerically,
    which guarantees the coordinate bracket matches matrix commutators.
    """
    mats = np.asarray(basis_matrices)
    dim = mats.shape[0]
    p = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            p[i, j] = pairing_fn(mats[i], mats[j])
    a = BasisAlgebra(name, labels, p, plus_indices, minus_indices,
                     np.zeros((dim, dim, dim)), basis_matrices=mats, **kw)
    # the commutator coordinates need the representation's dual basis,
    # which the algebra derives from its basis matrices
    comm = mats[:, None] @ mats[None, :] - mats[None, :] @ mats[:, None]
    a.structure_constants[...] = a.mat_to_vec(comm)
    return a


def _hat3(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _so3_cotangent():
    """Semidirect double so(3) (semidirect) so(3)*: abelian minus factor.

    Represented on 4x4 real matrices [[hat(x), mu], [0, 0]]; the group is
    rotations with translations, factoring globally as g = (R,0)(I, v).
    """
    mats = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        m = np.zeros((4, 4))
        m[:3, :3] = _hat3(e)
        mats.append(m)
    for i in range(3):
        m = np.zeros((4, 4))
        m[i, 3] = 1.0
        mats.append(m)

    def pairing_fn(a, b):
        # ((x, mu), (y, nu)) = <mu, y> + <nu, x>
        xa, ma = _so3_split(a)
        xb, mb = _so3_split(b)
        return float(ma @ xb + mb @ xa)

    labels = ["e1", "e2", "e3", "f1", "f2", "f3"]
    return algebra_from_matrices(
        "so3-cotangent", labels, mats, pairing_fn, [0, 1, 2], [3, 4, 5],
        group_memberships={
            "plus": _so3_member_plus, "minus": _so3_member_minus},
        factorizer=_so3_factorize)


def _so3_split(m):
    a = m[:3, :3]
    x = np.array([a[2, 1], a[0, 2], a[1, 0]])
    return x, m[:3, 3].copy()


def _so3_member_plus(m, tol):
    r = m[:3, :3]
    return (np.abs(m[:3, 3]).max() < tol
            and np.abs(r.T @ r - np.eye(3)).max() < tol
            and abs(np.linalg.det(r) - 1.0) < tol
            and np.abs(m[3] - [0, 0, 0, 1]).max() < tol)


def _so3_member_minus(m, tol):
    return (np.abs(m[:3, :3] - np.eye(3)).max() < tol
            and np.abs(m[3] - [0, 0, 0, 1]).max() < tol)


def _so3_factorize(m):
    r = m[..., :3, :3]
    gp = np.broadcast_to(np.eye(4), m.shape).copy()
    gp[..., :3, :3] = r
    gm = np.broadcast_to(np.eye(4), m.shape).copy()
    gm[..., :3, 3:] = np.linalg.solve(r, m[..., :3, 3:])
    return gp, gm


_SIGMA = [np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]


def _sl2c_iwasawa():
    """sl(2,C) as a real algebra: su(2) + upper-triangular real-diagonal part.

    Pairing is -2 Im tr(XY); the group factorization SL(2,C) = SU(2) SB(2,C)
    is global (QR with positive real diagonal).
    """
    mats = [-0.5j * s for s in _SIGMA]
    mats.append(np.array([[0.5, 0], [0, -0.5]], dtype=complex))
    mats.append(np.array([[0, 1], [0, 0]], dtype=complex))
    mats.append(np.array([[0, 1j], [0, 0]], dtype=complex))

    def pairing_fn(a, b):
        return float(-2.0 * np.imag(np.trace(a @ b)))

    labels = ["e1", "e2", "e3", "b1", "b2", "b3"]
    return algebra_from_matrices(
        "sl2c-iwasawa", labels, mats, pairing_fn, [0, 1, 2], [3, 4, 5],
        group_memberships={
            "plus": _su2_member, "minus": _sb2_member},
        factorizer=_sl2c_factorize)


def _su2_member(m, tol):
    return (np.abs(m @ m.conj().T - np.eye(2)).max() < tol
            and abs(np.linalg.det(m) - 1.0) < tol)


def _sb2_member(m, tol):
    return (abs(m[1, 0]) < tol
            and abs(np.linalg.det(m) - 1.0) < tol
            and abs(m[0, 0].imag) < tol and m[0, 0].real > 0)


def _sl2c_factorize(m):
    q, r = np.linalg.qr(m)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    ph = ph / np.abs(ph)
    q = q * ph[..., None, :]
    r = (1.0 / ph)[..., :, None] * r
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
    unknown = set(decl) - required - {"cocycle"}
    if unknown:
        raise ValueError("unknown declaration keys: %s" % sorted(unknown))
    missing = required - set(decl)
    if missing:
        raise ValueError("missing declaration keys: %s" % sorted(missing))
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
    return BasisAlgebra(decl["name"], decl["labels"],
                        np.asarray(decl["pairing"]), decl["plus_indices"],
                        decl["minus_indices"], c)


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
