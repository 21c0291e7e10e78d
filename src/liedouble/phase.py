"""Phase space G x g* with the cocycle-extended symplectic form.

Tangent vectors are pairs (xi, rho) in left trivialization: xi = g^{-1}v is
an algebra vector, rho a covector. Differentials are pairs (dF, deltaF) with
dF the left-trivialized group-slot covector and deltaF the fiber-slot algebra
vector; a bracket pairs a differential with a Hamiltonian field. The module
provides the extended form omega_c and its field, the second-class
constraint machinery over a frozen (g-, eta-), the one restricted field on
those fibers (exact when c_hat exchanges the isotropic factors; it reads
the fiber's dressed projector and never factorizes the point), and the
momentum maps whose closure witnesses the restored left-translation
symmetry on admissible fibers.
"""

import numpy as np

from . import group as grouplib
from .algebra import _dot, _flat, _max_abs, is_character

__all__ = ["PhasePoint", "FiberSpec", "Observable", "Differential",
           "PhaseSpace"]

ON_FIBER_TOL = 1e-9


class PhasePoint:
    """A point (g, eta), or a stack: eta is read as (..., N, d) coordinates
    of g's algebra, so a flat (N d,) covector is accepted here once.
    Indexing indexes g's matrix and eta together, so ``points[idx]`` is a
    sub-stack and ``points[-1]`` one point."""

    __slots__ = ("g", "eta")

    def __init__(self, g, eta):
        self.g = g
        eta = np.asarray(eta, dtype=float)
        self.eta = eta.reshape(g.algebra.shape) if eta.ndim == 1 else eta

    def __getitem__(self, index):
        g = grouplib.GroupPoint(self.algebra, self.g.matrix[index])
        return PhasePoint(g, self.eta[index])

    @property
    def algebra(self):
        return self.g.algebra

    def g_plus(self):
        return self.g.factors()[0]

    def g_minus(self):
        return self.g.factors()[1]


class FiberSpec:
    """The frozen (g-, eta-) of a constrained submanifold, and Q of g-."""

    def __init__(self, g_minus, eta_minus, projector, cocycle):
        self.g_minus = g_minus
        self.eta_minus = np.asarray(eta_minus, dtype=float).reshape(
            g_minus.algebra.shape)
        if not g_minus.member("minus"):
            raise ValueError("g_minus is not in the minus factor")
        self.projector = projector
        # raises on support outside the dual of g-
        self.is_character = is_character(g_minus.algebra, self.eta_minus)
        self.in_kernel = grouplib.kernel_check(cocycle, g_minus)

    def require_admissible(self):
        """Raise a ValueError unless the fiber is admissible."""
        if not self.is_character:
            raise ValueError("eta_minus must be a character of g-")
        if not self.in_kernel:
            raise ValueError("g_minus must lie in the kernel of the cocycle")


class Differential:
    """The pair (dF, deltaF) of one differential, as (N, d) arrays, or of
    a stack of them as (..., N, d) arrays. They are ndarrays, stored as
    given: a flow stage builds one, so nothing converts them. Indexing
    indexes both, so ``rows[:, None]`` adds an axis to a stack."""

    __slots__ = ("dF", "deltaF")

    def __init__(self, dF, deltaF):
        self.dF = dF
        self.deltaF = deltaF

    def __getitem__(self, index):
        return Differential(self.dF[index], self.deltaF[index])


class Observable:
    """A scalar function of (g, eta) with its analytic differential.

    ``value`` is ``fn``, one value per point of a stack; ``diff``, the
    ``analytic_differential``, maps a point to its ``Differential``.
    """

    def __init__(self, fn, diff, name=None):
        self.value = fn
        self.analytic_differential = diff
        self.name = name

    @property
    def has_analytic_differential(self):
        # perfbench/tracer.py reads it when it re-wraps a Hamiltonian
        return self.analytic_differential is not None


class PhaseSpace:
    """Bundles the algebra with a group 1-cocycle and its 2-cocycle."""

    def __init__(self, algebra, group_cocycle=None):
        self.algebra = algebra
        self.C = group_cocycle or grouplib.GroupCocycle.zero(algebra)
        self.c2 = self.C.infinitesimal()
        # the paper's hypothesis: the restricted bracket keeps no cocycle
        self.exchanging = self.c2.is_isotropic_exchanging()
        if len(algebra.site_plus) != len(algebra.site_minus):
            raise ValueError("constraint frame needs dim g+ = dim g-")

    # --- basic geometry -------------------------------------------------

    def fibration(self, p):
        """(g, eta) -> (g-, eta-)."""
        return p.g_minus(), self.algebra.project(p.eta, "minus")

    def fiber(self, g_minus, eta_minus):
        return FiberSpec(g_minus, eta_minus, self.dressed_projector(g_minus),
                         self.C)

    def on_fiber_distance(self, p, fiber):
        """The largest distance of the points from the fiber, or NaN."""
        gm, em = self.fibration(p)
        dg = np.abs(gm.matrix - fiber.g_minus.matrix).max((-3, -2, -1))
        de = _flat(em - fiber.eta_minus)
        return _max_abs(dg + np.sqrt(np.vecdot(de, de)))

    def _require_on_fiber(self, p, fiber):
        d = self.on_fiber_distance(p, fiber)
        # written as "not <=" so that a NaN distance fails
        if not d <= ON_FIBER_TOL:
            raise ValueError("point is off the fiber by %.3e" % d)

    def fiber_point(self, fiber, g_plus, eta_plus):
        """Assemble (g+ g-, eta+ + eta-) on the given fiber."""
        eta_plus = self.algebra.project(eta_plus, "plus")
        return PhasePoint(g_plus.mul(fiber.g_minus),
                          eta_plus + fiber.eta_minus)

    def fiber_chart(self, fiber, x):
        """(exp(X+) g-, eta+ + eta-) from the g+ and g+* parts of the
        (..., 2, N, d) pairs x = (X, eta)."""
        a = self.algebra
        x = a.project(x, "plus")
        return self.fiber_point(fiber, grouplib.exp(a, x[..., 0, :, :]),
                                x[..., 1, :, :])

    def random_fiber_point(self, fiber, rng, scale=0.5, batch=None):
        """``fiber_chart`` at scaled normals; ``batch`` = K stacks K
        points, drawn as K single calls draw."""
        lead = () if batch is None else (batch,)
        return self.fiber_chart(fiber, scale * rng.standard_normal(
            lead + (2,) + self.algebra.shape))

    # --- symplectic structure -------------------------------------------

    def omega_c(self, p, t1, t2):
        """The extended form on two tangents, one value per point."""
        xi1, rho1 = t1
        xi2, rho2 = t2
        adg = p.g.ad_matrix()
        return (-_dot(rho1, xi2) + _dot(rho2, xi1)
                + _dot(p.eta, self.algebra.bracket(xi1, xi2))
                + self.c2.eval(np.matvec(adg, xi1), np.matvec(adg, xi2)))

    def differential(self, F, p):
        """The differential (dF, deltaF) of F at p, from F's own ``diff``."""
        return F.analytic_differential(p)

    def ham_vf_from_diff(self, d, p):
        """(delta F, coad_{delta F} eta - dF + Ad*_g c_hat(Ad_g delta F)),
        as stacks for a stack of differentials."""
        adg = p.g.ad_matrix()
        x = d.deltaF
        rho = (np.vecmat(x, self.algebra.bracket_form(p.eta)) - d.dF
               + np.vecmat(self.c2.hat(np.matvec(adg, x)), adg))
        return x.copy(), rho

    @staticmethod
    def pair(dF, field):
        """{F, G} = <dF, xi_G> + <rho_G, deltaF> for the field of G, one
        value per point; leading axes broadcast, so ``rows[:, None]``
        against the fields of ``rows`` is the matrix of their brackets."""
        xi, rho = field
        return _dot(dF.dF, xi) + _dot(dF.deltaF, rho)

    def poisson_c(self, F, G, p):
        dF = self.differential(F, p)
        dG = self.differential(G, p)
        return self.poisson_from_diff(dF, dG, p)

    def poisson_from_diff(self, dF, dG, p):
        # dF applied to the Hamiltonian field of G needs no cocycle
        # identities, which lattice cocycles satisfy only to stencil order
        return self.pair(dF, self.ham_vf_from_diff(dG, p))

    # --- constraint machinery -------------------------------------------

    def dressed_projector(self, g_minus):
        """Ad_{g-^{-1}} Pi_{g+} Ad_{g-} = P^{-1} Ad_{g-}^T (P Pi_{g+}) Ad_{g-}
        as (N, d, d) site blocks, by the ad-invariance of the pairing.

        Its transpose is the dual-side sandwich Ad*_{g-} Pi_{g+*} Ad*_{g-^{-1}}.
        """
        a = self.algebra
        adm = g_minus.ad_matrix()
        return (a.pairing_inv @ adm.mT @ a.pairing
                @ a.selector("plus") @ adm)

    def frame(self):
        """(T_a, T^a) as (n, N, d) stacks: the plus coordinate axes and the
        pairing-dual frame psi_bar(e^a) of g-, (T_a, T^b)_g = delta_a^b.
        Isotropy makes the inverse pairing block-antidiagonal, so T^a
        lies in g-."""
        a = self.algebra
        axes = np.eye(a.dim)[a.plus_indices].reshape((-1,) + a.shape)
        return axes, a.psi_bar(axes)

    def constraint_differentials(self, p):
        """The differentials of the 2n constraint functions at p, stacked.

        First n rows: left-log coordinates of g- paired with psi(T_a); last
        n: <eta, T^a>. These are exactly the pulled-back frame 1-forms.
        """
        a = self.algebra
        axes, tm = self.frame()
        # through Ad_{g-^{-1}} Pi_{g-} Ad_{g-} = 1 - proj
        proj = self.dressed_projector(p.g_minus())
        # the rows' axis comes before the points' axes
        rows = (len(axes),) + (1,) * (proj.ndim - 3) + a.shape
        mu = a.psi(axes).reshape(rows)
        dF = mu - np.vecmat(mu, proj)
        zero = np.zeros_like(dF)
        return Differential(np.concatenate([dF, zero]),
                            np.concatenate([zero, zero + tm.reshape(rows)]))

    def dirac_matrix(self, p):
        """The brackets of the constraints, [[0, I], [-I, Omega]] in the
        normalized frame, with Omega[i, j] = {<eta, T^i>, <eta, T^j>} =
        -<eta, [T^i, T^j]> + Ad_g T^i . c_hat(Ad_g T^j), the cocycle term
        of omega_c; one (2n, 2n) matrix per point of a stack."""
        _, tm = self.frame()
        n = len(tm)
        # the frame's axis comes after the points' axes
        at = np.matvec(p.g.ad_matrix()[..., None, :, :, :], tm)
        form = self.algebra.bracket_form(p.eta)[..., None, :, :, :]
        omega = (-_flat(np.vecmat(tm, form)) @ _flat(tm).T
                 + _flat(at) @ _flat(self.c2.hat(at)).mT)
        eye = np.broadcast_to(np.eye(n), omega.shape)
        return np.block([[0 * eye, eye], [-eye, omega]])

    def require_exchanging(self):
        if not self.exchanging:
            raise ValueError("cocycle does not exchange the isotropic factors")

    def restricted_field(self, d, p, fiber):
        """The restricted bracket's field, no cocycle term: xi = Q deltaF,
        rho = Q^T (coad_xi eta - dF), Q the fiber's dressed projector."""
        q = fiber.projector
        xi = np.matvec(q, d.deltaF)
        return xi, np.vecmat(self.algebra.coad(xi, p.eta) - d.dF, q)

    def cocycle_traces(self, dF, dG, p, fiber):
        """<C(g+^{-1}), [PF, PG]> + c(PF, PG) with P = Pi_+ Ad_{g-} of the
        fiber: what the restricted field leaves out of the bracket."""
        a = self.algebra
        adm = fiber.g_minus.ad_matrix()
        pf = a.project(np.matvec(adm, dF.deltaF), "plus")
        pg = a.project(np.matvec(adm, dG.deltaF), "plus")
        return (_dot(self.C.value(p.g_plus().inv()), a.bracket(pf, pg))
                + self.c2.eval(pf, pg))

    def dirac_bracket(self, F, G, p, fiber):
        """Closed-form restricted bracket on N(g-, eta-), for any cocycle."""
        self._require_on_fiber(p, fiber)
        dF, dG = self.differential(F, p), self.differential(G, p)
        return (self.pair(dF, self.restricted_field(dG, p, fiber))
                - self.cocycle_traces(dF, dG, p, fiber))

    def dirac_bracket_reduced(self, F, G, p, fiber):
        """The restricted bracket without the cocycle traces."""
        self.require_exchanging()
        self._require_on_fiber(p, fiber)
        return self.pair(self.differential(F, p), self.restricted_field(
            self.differential(G, p), p, fiber))

    def dirac_oracle(self, F, G, p):
        """Generic second-class formula {F,G} - {F,phi} K^{-1} {phi,G},
        read off one bracket matrix of the rows (F, G, phi_1, ...) per
        point, all solved at once."""
        dF = self.differential(F, p)
        dG = self.differential(G, p)
        cons = self.constraint_differentials(p)
        shape = np.broadcast_shapes(dF.dF.shape, dG.dF.shape,
                                    cons.dF.shape[1:])

        def rows(f, g, phi):
            # phi gains the axes that F and G may have before the points'
            phi = phi[(slice(None),) + (None,) * (len(shape) + 1 - phi.ndim)]
            return np.concatenate([np.broadcast_to(x, (len(x),) + shape)
                                   for x in ([f], [g], phi)])

        r = Differential(rows(dF.dF, dG.dF, cons.dF),
                         rows(dF.deltaF, dG.deltaF, cons.deltaF))
        m = np.moveaxis(self.poisson_from_diff(r[:, None], r, p), (0, 1),
                        (-2, -1))
        return m[..., 0, 1] - np.vecdot(m[..., 0, 2:], np.linalg.solve(
            m[..., 2:, 2:], m[..., 2:, 1:2])[..., 0])

    # --- momentum maps ----------------------------------------------------

    def momentum_left(self, p):
        return grouplib.coadjoint_star(p.g.inv(), p.eta)

    def momentum_ext(self, p):
        return self.momentum_left(p) + self.C.value(p.g), 1.0

    def momentum_fn(self, x, a_ext=0.0):
        """The extended momentum function j_X = <momentum_ext, X> + a."""
        x = np.asarray(x, dtype=float)
        alg = self.algebra

        def fn(p):
            return _dot(self.momentum_ext(p)[0], x) + a_ext

        def diff(p):
            ax = grouplib.adjoint(p.g.inv(), x)
            return Differential(alg.coad(ax, p.eta) + self.c2.hat(ax), ax)

        return Observable(fn, diff=diff, name="j")

    def group_action_d(self, h, p, fiber):
        """The finite fiber action; x generates the restricted field of j_x."""
        self.require_exchanging()
        fiber.require_admissible()
        self._require_on_fiber(p, fiber)
        gp, gm = p.g.factors()
        l = gp.inv().mul(h).mul(gp)
        l_plus, l_minus = l.factors()
        g_new = p.g.mul(gm.inv().mul(l_plus).mul(gm))
        # the fiber slot is pinned down by equivariance of the extended
        # momentum map: J(h.p) = Ad*_{h^{-1}} J(p) in the extended coadjoint
        # action, which solves to eta_new = Ad*_{m^{-1}} eta + C(m) with the
        # conjugated minus part m = g-^{-1} l- g-
        m = gm.inv().mul(l_minus).mul(gm)
        eta_new = grouplib.coadjoint_star(m.inv(), p.eta) + self.C.value(m)
        return PhasePoint(g_new, eta_new)
