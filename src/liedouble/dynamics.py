"""Collective Hamiltonian dynamics on the double and on constrained fibers.

The quadratic Hamiltonians are built from an involutive energy operator E on
the double (E^2 = 1, symmetric for the ad-invariant pairing), composed with
the extended momentum map. Fiber flows follow PhaseSpace.restricted_field,
so they need its hypothesis, and so does the Legendre map, which is that
field's g+ velocity. Flows are integrated with a 4th-order
Runge-Kutta-Munthe-Kaas scheme that keeps the group slot on the group.
Points, fields and differentials hold (..., N, d) coordinate arrays, with
a leading axis for a stack of points; E and P E are one (d, d) block each,
and E_g and the Legendre map's metric and two-form blocks are
(..., N, d, d) site stacks.
"""

import numpy as np

from . import group as grouplib
from .algebra import _below, _dot, _max_abs
from .phase import Differential, Observable, PhasePoint

__all__ = ["EnergyOperator", "IntegratorConfig", "Trajectory",
           "hamiltonian_quadratic", "dirac_field", "flow_full", "flow_fiber",
           "legendre_map", "legendre_inverse", "collectivity_check"]

COLLECTIVITY_SAMPLES = 5  # trajectory times that collectivity_check reads


class EnergyOperator:
    """Involution E of the double, symmetric for the pairing.

    E acts site by site: ``matrix`` is one site's (d, d) matrix, the same
    on every site. In the normalized frame (T_a in g+, T^a in g- dual to
    them under the base double's pairing) a site block is assembled from a
    symmetric invertible S and an antisymmetric A, both of the size of one
    site's g+, as the usual generalized-metric involution; on a loop every
    site carries the base double's involution, whatever N.
    """

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        d = algebra.site_dim
        e = self.matrix = np.asarray(matrix, dtype=float)
        if e.shape != (d, d):
            raise ValueError("energy operator must be one site's %dx%d "
                             "matrix (got shape %s)" % (d, d, e.shape))
        if not _below(e @ e - np.eye(d), 1e-10):
            raise ValueError("energy operator is not an involution")
        # P E, the symmetric form of the energy, one (d, d) block
        pe = self.pe = algebra.pairing @ e
        if not _below(pe - pe.T, 1e-10):
            raise ValueError("energy operator is not pairing-symmetric")

    @classmethod
    def from_blocks(cls, algebra, s, a=None):
        sp, sm = algebra.site_plus, algebra.site_minus
        n = len(sp)
        s = np.asarray(s, dtype=float)
        a = np.zeros((n, n)) if a is None else np.asarray(a, dtype=float)
        if not _below([s - s.T, a + a.T], 1e-12):
            raise ValueError("blocks must be symmetric / antisymmetric")
        # in the normalized frame the cross pairing is the identity, so the
        # maps g+ -> g- with matrices s (metric) and a (two-form) give
        #   E = [[-s^{-1} a, s^{-1}], [s - a s^{-1} a, a s^{-1}]]
        sinv = np.linalg.inv(s)
        # the base double's cross pairing on every site, undoing the 1/N
        # of a loop's pairing: each site carries the base's involution, so
        # the lattice Hamiltonian is a Riemann sum of one density
        site_pairing = algebra.n_sites * algebra.pairing
        cross = site_pairing[sp[:, None], sm]
        # convert frame blocks to coordinate blocks: T^b = psi_bar(e^b)
        # carries cross^{-1}, the (minus, plus) block of the inverse pairing
        to_minus = (algebra.pairing_inv / algebra.n_sites)[sm[:, None], sp]
        e = np.zeros((algebra.site_dim, algebra.site_dim))
        e[sp[:, None], sp] = -sinv @ a
        e[sp[:, None], sm] = sinv @ cross
        e[sm[:, None], sp] = to_minus @ (s - a @ sinv @ a)
        e[sm[:, None], sm] = to_minus @ (a @ sinv) @ cross
        return cls(algebra, e)

    @classmethod
    def preset(cls, algebra, name="isotropic"):
        """A preset on every site; its blocks have the size of one site."""
        n = len(algebra.site_plus)
        if name == "isotropic":
            return cls.from_blocks(algebra, np.eye(n))
        if name == "skewed":
            return cls.from_blocks(algebra, np.diag(1.0 + 0.5 * np.arange(n)),
                                   0.3 * (np.eye(n, k=1) - np.eye(n, k=-1)))
        raise ValueError("unknown preset %r" % name)

    def at(self, g):
        """E_g = Ad_{g^{-1}} E Ad_g = P^{-1} Ad_g^T (P E) Ad_g as
        (..., N, d, d) site blocks, by the ad-invariance of the pairing P."""
        adg = g.ad_matrix()
        return self.algebra.pairing_inv @ adg.mT @ self.pe @ adg

    def blocks_at(self, g):
        """The metric/two-form blocks (G_g, B_g): g+ -> g- at the point g.

        Returned as (..., N, d, d) site blocks on the (minus, plus) block,
        so they apply directly to plus-supported vectors.
        """
        a = self.algebra
        sp, sm = a.site_plus, a.site_minus
        eg = self.at(g)
        # G_g inverts the g- -> g+ component of E_g, site by site
        ginv = np.linalg.inv(eg[..., sp[:, None], sm])
        gg, bb = np.zeros((2,) + eg.shape)
        gg[..., sm[:, None], sp] = ginv
        bb[..., sm[:, None], sp] = -ginv @ eg[..., sp[:, None], sp]
        return gg, bb


def _carrier(space, g, eta):
    """The covector eta - C(g^{-1}) that the quadratic Hamiltonian reads."""
    return eta - space.C.value(g.inv())


def hamiltonian_quadratic(space, e_op):
    """H = (1/2) (u, E_g u)_g with u = psi_bar(eta - C(g^{-1})).

    With v = Ad_g u, H = (1/2) v.(P E) v and E_g u = psi_bar(Ad_g^T (P E) v),
    so the Hamiltonian applies operators to vectors and solves nothing;
    P E is one (d, d) block, a single 2-D product on every site.
    The carrier (w, v, P E v), w = eta - C(g^{-1}) = psi(u), and the
    fiber slot delta = E_g u of the differential are kept for the last
    point, which a flow step's end-point energy and the next step's first
    stage share.
    """
    a = space.algebra
    pe_t = e_op.pe.T

    @grouplib._memo_last
    def carrier(p):
        w = _carrier(space, p.g, p.eta)
        adg = p.g.ad_matrix()
        v = np.matvec(adg, a.psi_bar(w))
        pe_v = np.dot(v, pe_t)
        return w, v, pe_v, a.psi_bar(np.vecmat(pe_v, adg))

    def fn(p):
        _, v, pe_v, _ = carrier(p)
        return 0.5 * _dot(v, pe_v)

    def diff(p):
        w, _, _, delta = carrier(p)
        # group slot: the E_g variation gives psi([u, delta]), which is
        # coad(delta, psi(u)) by ad-invariance; the C(g^{-1}) variation is
        # the exact cocycle derivative, so the differential is exact even
        # for lattice cocycles whose product identity only holds to the
        # stencil order
        dF = a.coad(delta, w) - space.C.differential_inv(p.g, delta)
        return Differential(dF, delta)

    return Observable(fn, diff=diff, name="quadratic")


def dirac_field(space, obs, p, fiber):
    """The restricted (Dirac) field of obs on the fiber, if exchanging."""
    space.require_exchanging()
    return space.restricted_field(space.differential(obs, p), p, fiber)


class IntegratorConfig:
    def __init__(self, dt, steps):
        self.dt = float(dt)
        self.steps = int(steps)
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive (got %r)" % dt)
        if self.steps < 1:
            raise ValueError("steps must be at least 1 (got %r)" % steps)


class Trajectory:
    """A flow's times, its points as one stack whose leading axis is time,
    its energies and its per-time extras."""

    def __init__(self, times, points, energies, extras=None):
        self.times = np.asarray(times, dtype=float)
        self.points = points
        self.energies = np.asarray(energies, dtype=float)
        self.extras = extras or {}


def _dexpinv(a, u, k):
    # truncated inverse left-trivialized differential of exp, i.e. solving
    # g(t) = g0 exp(u(t)) with g^{-1} gdot = k gives udot = dexpinv_{-u}(k);
    # the omitted terms are O(|u|^4 |k|), below the local error of a
    # 4th-order step
    ad_u = a.ad(u)
    c1 = np.matvec(ad_u, k)
    return k + 0.5 * c1 + np.matvec(ad_u, c1) / 12.0


def _rkmk4_step(space, field, p, dt):
    a = space.algebra
    g = p.g

    def moved(v, eta):
        # the point (g exp(v), eta), built from the matrices: what
        # g.mul(grouplib.exp(a, v)) computes, without its intermediate
        # point, scaling and reshape, four times a step
        return PhasePoint(grouplib.GroupPoint(a, grouplib.matmul(
            g.matrix, a.exponential(a.vec_to_mat(v)))), eta)

    def rate(v, eta):
        xi, rho = field(moved(v, eta))
        return _dexpinv(a, v, xi), rho

    # the first stage sits at p itself, whose adjoint the energy
    # evaluation of the previous step has cached
    k1v, k1e = field(p)
    k2v, k2e = rate(0.5 * dt * k1v, p.eta + 0.5 * dt * k1e)
    k3v, k3e = rate(0.5 * dt * k2v, p.eta + 0.5 * dt * k2e)
    k4v, k4e = rate(dt * k3v, p.eta + dt * k3e)
    return moved(dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0,
                 p.eta + dt * (k1e + 2 * k2e + 2 * k3e + k4e) / 6.0)


def _integrate(space, field, obs, p0, cfg, fiber=None, step=_rkmk4_step):
    # the flow's points, one (T + 1, ...) stack in the group's own dtype
    t = cfg.steps + 1
    g = np.empty((t,) + p0.g.matrix.shape, p0.algebra.identity_matrix.dtype)
    eta, energies = np.empty((t,) + p0.eta.shape), np.empty(t)
    p = p0
    for k in range(t):
        if k:
            p = step(space, field, p, cfg.dt)
        g[k], eta[k], energies[k] = p.g.matrix, p.eta, obs.value(p)
        if not abs(energies[k]) < np.inf:  # so NaN and inf both stop it
            raise grouplib.FactorizationError("flow step %d is not finite" % k)
    points = PhasePoint(grouplib.GroupPoint(space.algebra, g), eta)
    drifts = np.zeros((2, t))  # of g- and eta- from the fiber
    if fiber is not None:
        # one factorization of the whole flow; the field reads only the
        # fiber's g-, and p0 was checked on the fiber
        gm, em = space.fibration(points[1:])
        drifts[:, 1:] = (
            np.abs(gm.matrix - fiber.g_minus.matrix).max((-3, -2, -1)),
            np.abs(em - fiber.eta_minus).max((-2, -1)))
    return Trajectory(cfg.dt * np.arange(t), points, energies,
                      extras={"drift_gminus": drifts[0],
                              "drift_etaminus": drifts[1]})


def flow_full(space, obs, p0, cfg):
    """Integrate the unconstrained Hamiltonian flow of obs from p0."""

    def field(p):
        return space.ham_vf_from_diff(space.differential(obs, p), p)

    return _integrate(space, field, obs, p0, cfg)


def flow_fiber(space, obs, p0, fiber, cfg):
    """Integrate the restricted (Dirac) flow; (g-, eta-) stay frozen. The
    start on the fiber is checked once; each stage is a ``dirac_field``,
    which checks the field's hypothesis."""
    space._require_on_fiber(p0, fiber)

    def field(p):
        return dirac_field(space, obs, p, fiber)

    return _integrate(space, field, obs, p0, cfg, fiber=fiber)


def legendre_map(space, e_op, p, fiber):
    """Fiber momentum to velocity: g+^{-1} d/dt g+ as coordinates.

    It is the g+ velocity of the restricted quadratic flow,
    Ad_{g-} xi = Pi_+ Ad_{g-} deltaH, since Ad_{g-} Q = Pi_+ Ad_{g-} for
    the fiber's dressed projector Q; so it needs the restricted field's
    hypothesis.
    """
    space.require_exchanging()
    space._require_on_fiber(p, fiber)
    delta = space.differential(hamiltonian_quadratic(space, e_op), p).deltaF
    return space.algebra.project(np.matvec(fiber.g_minus.ad_matrix(), delta),
                                 "plus")


def legendre_inverse(space, e_op, g_plus, gdot, fiber):
    """Velocity to fiber momentum: the point (g+ g-, eta) with matching g+dot.

    On an admissible fiber (eta- a character of g-, g- in the cocycle's
    kernel) it inverts legendre_map.
    """
    a = space.algebra
    gm = fiber.g_minus
    gg, bb = e_op.blocks_at(g_plus)
    v = a.psi_bar(_carrier(space, g_plus, fiber.eta_minus))
    val = (np.matvec(gg, gdot) + np.matvec(bb, v)
           - a.project(np.matvec(gm.ad_matrix(), a.psi_bar(fiber.eta_minus)),
                       "minus"))
    eta_plus = grouplib.coadjoint_star(gm, a.psi(val))
    return space.fiber_point(fiber, g_plus, eta_plus)


def collectivity_check(space, e_op, traj, fiber):
    """Residuals witnessing that the quadratic flow is collective.

    Returns a dict with three maxima over sampled trajectory times:
    the collective form of the velocity field, the coadjoint-orbit equation
    for the extended momentum, and the orbit reconstruction through the
    finite fiber action. The sampled points are one sub-stack.
    """
    a = space.algebra
    obs = hamiltonian_quadratic(space, e_op)
    idx = np.linspace(0, len(traj.times) - 2, COLLECTIVITY_SAMPLES).astype(int)
    dt = traj.times[1] - traj.times[0]
    p, nxt = traj.points[idx], traj.points[idx + 1]
    # the generator direction: first slot of L_h(J) for quadratic h
    x = np.matvec(p.g.ad_matrix(), space.differential(obs, p).deltaF)
    xi_gen, rho_gen = dirac_field(space, space.momentum_fn(x), p, fiber)
    xi, rho = dirac_field(space, obs, p, fiber)
    res_field = np.maximum(_max_abs(xi - xi_gen), _max_abs(rho - rho_gen))
    # extended coadjoint orbit equation for J along the flow, read at the
    # sampled times that have a predecessor
    prev = traj.points[np.maximum(idx - 1, 0)]
    jdot = (space.momentum_ext(nxt)[0]
            - space.momentum_ext(prev)[0]) / (2 * dt)
    pred = -(a.coad(x, space.momentum_ext(p)[0]) + space.c2.hat(x))
    # one finite step reconstructed through the fiber action
    q = space.group_action_d(grouplib.exp(a, x, dt), p, fiber)
    return {"field": res_field, "orbit": _max_abs((jdot - pred)[idx > 0]),
            "reconstruction": np.maximum(_max_abs(q.eta - nxt.eta),
                                         _max_abs(q.g.matrix - nxt.g.matrix))}
