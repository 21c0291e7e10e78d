"""Collective Hamiltonian dynamics on the double and on constrained fibers.

The quadratic Hamiltonians are built from an involutive energy operator E on
the double (E^2 = 1, symmetric for the ad-invariant pairing), composed with
the extended momentum map. Flows are integrated with a 4th-order
Runge-Kutta-Munthe-Kaas scheme that keeps the group slot on the group.
"""

import csv

import numpy as np

from . import group as grouplib
from .phase import PhasePoint

__all__ = [
    "EnergyOperator",
    "IntegratorConfig",
    "Trajectory",
    "hamiltonian_quadratic",
    "dirac_field",
    "flow_full",
    "flow_fiber",
    "legendre_map",
    "legendre_inverse",
    "collectivity_check",
]


class EnergyOperator:
    """Involution E of the double, symmetric for the pairing.

    In the normalized frame (T_a in g+, pairing-dual T^a in g-) the operator
    is assembled from an invertible symmetric block S and an antisymmetric
    block A, both n x n, as the usual generalized-metric involution.
    """

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = np.asarray(matrix, dtype=float)
        if np.abs(self.matrix @ self.matrix - np.eye(algebra.dim)).max() > 1e-10:
            raise ValueError("energy operator is not an involution")
        p = algebra.pairing
        if np.abs(p @ self.matrix - (p @ self.matrix).T).max() > 1e-10:
            raise ValueError("energy operator is not pairing-symmetric")

    @classmethod
    def from_blocks(cls, algebra, s, a=None):
        pi, mi = algebra.plus_indices, algebra.minus_indices
        n = len(pi)
        s = np.asarray(s, dtype=float)
        a = np.zeros((n, n)) if a is None else np.asarray(a, dtype=float)
        if np.abs(s - s.T).max() > 1e-12 or np.abs(a + a.T).max() > 1e-12:
            raise ValueError("blocks must be symmetric / antisymmetric")
        # in the normalized frame the cross pairing is the identity, so the
        # maps g+ -> g- with matrices s (metric) and a (two-form) give
        #   E = [[-s^{-1} a, s^{-1}], [s - a s^{-1} a, a s^{-1}]]
        sinv = np.linalg.inv(s)
        cross = algebra.pairing[np.ix_(pi, mi)]
        # convert frame blocks to coordinate blocks: T^b carries cross^{-1}
        to_minus = np.linalg.inv(cross)
        e = np.zeros((algebra.dim, algebra.dim))
        e[np.ix_(pi, pi)] = -sinv @ a
        e[np.ix_(pi, mi)] = sinv @ cross
        e[np.ix_(mi, pi)] = to_minus @ (s - a @ sinv @ a)
        e[np.ix_(mi, mi)] = to_minus @ (a @ sinv) @ cross
        return cls(algebra, e)

    @classmethod
    def preset(cls, algebra, name="isotropic"):
        n = len(algebra.plus_indices)
        if name == "isotropic":
            return cls.from_blocks(algebra, np.eye(n))
        if name == "skewed":
            s = np.diag(1.0 + 0.5 * np.arange(n))
            a = np.zeros((n, n))
            for i in range(n - 1):
                a[i, i + 1] = 0.3
                a[i + 1, i] = -0.3
            return cls.from_blocks(algebra, s, a)
        raise ValueError("unknown preset %r" % name)

    def at(self, g):
        """E_g = Ad_{g^{-1}} E Ad_g as a coordinate matrix."""
        adg = g.ad_matrix()
        return np.linalg.solve(adg, self.matrix @ adg)

    def blocks_at(self, g):
        """The metric/two-form blocks (G_g, B_g): g+ -> g- at the point g.

        Returned as full coordinate matrices supported on the (minus, plus)
        block, so they can be applied directly to plus-supported vectors.
        """
        a = self.algebra
        pi, mi = a.plus_indices, a.minus_indices
        eg = self.at(g)
        m = eg[np.ix_(pi, mi)]          # g- -> g+ component of E_g
        ginv = np.linalg.inv(m)         # G_g in (minus rows, plus cols)
        gg = np.zeros((a.dim, a.dim))
        gg[np.ix_(mi, pi)] = ginv
        bb = np.zeros((a.dim, a.dim))
        bb[np.ix_(mi, pi)] = -ginv @ eg[np.ix_(pi, pi)]
        return gg, bb

    def eigenspace_basis(self, g, sign):
        """Basis of the +-1 eigenspace of E_g as a (n, dim) array of graphs."""
        a = self.algebra
        gg, bb = self.blocks_at(g)
        rows = []
        for i in a.plus_indices:
            x = np.zeros(a.dim)
            x[i] = 1.0
            rows.append(x + (bb + sign * gg) @ x)
        return np.array(rows)


def hamiltonian_quadratic(space, e_op):
    """H = (1/2) (psi_bar(u), E_g psi_bar(u))_g with u = eta - C(g^{-1})."""
    from .phase import Differential, Observable

    a = space.algebra

    def carrier(p):
        return a.psi_bar(p.eta - space.C.value(p.g.inv()))

    def fn(p):
        u = carrier(p)
        return 0.5 * a.pair(u, e_op.at(p.g) @ u)

    def diff(p):
        u = carrier(p)
        delta = e_op.at(p.g) @ u
        # group slot: the E_g variation gives psi([u, delta]); the C(g^{-1})
        # variation is the exact cocycle derivative, so the differential is
        # exact even for lattice cocycles whose product identity only holds
        # to the stencil order
        dF = (a.psi(a.bracket(u, delta))
              - space.C.differential_inv(p.g).T @ delta)
        return Differential(dF, delta)

    return Observable(fn, diff=diff, name="quadratic")


def dirac_field(space, obs, p):
    """Hamiltonian vector field of the restricted (Dirac) bracket."""
    d = space.differential(obs, p)
    q = space.dressed_projector(p.g_minus())
    xi = q @ d.deltaF
    rho = q.T @ (space.algebra.coad(xi, p.eta) - d.dF)
    return xi, rho


class IntegratorConfig:
    def __init__(self, dt, steps, method="rkmk4"):
        if method not in ("rkmk4", "ambient-rk4"):
            raise ValueError("unknown method %r" % method)
        self.dt = float(dt)
        self.steps = int(steps)
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive (got %r)" % dt)
        if self.steps < 1:
            raise ValueError("steps must be at least 1 (got %r)" % steps)
        self.method = method


class Trajectory:
    def __init__(self, times, points, energies, extras=None):
        self.times = np.asarray(times, dtype=float)
        self.points = points
        self.energies = np.asarray(energies, dtype=float)
        self.extras = extras or {}

    def to_csv(self, path):
        a = self.points[0].algebra
        mshape = np.asarray(self.points[0].g.matrix).shape
        gcols = ["g_re_%d_%d" % (i, j)
                 for i in range(mshape[-2]) for j in range(mshape[-1])]
        gcols += ["g_im_%d_%d" % (i, j)
                  for i in range(mshape[-2]) for j in range(mshape[-1])]
        ecols = ["eta_%d" % i for i in range(a.dim)]
        extra_keys = sorted(self.extras)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + gcols + ecols + ["energy"] + extra_keys)
            for k, (t, p) in enumerate(zip(self.times, self.points)):
                m = np.asarray(p.g.matrix)
                if m.ndim > 2:
                    m = m[0]  # lattice: leading site only in the table
                row = ([repr(float(t))]
                       + [repr(float(x)) for x in m.real.reshape(-1)]
                       + [repr(float(x)) for x in m.imag.reshape(-1)]
                       + [repr(float(x)) for x in p.eta]
                       + [repr(float(self.energies[k]))]
                       + [repr(float(self.extras[key][k]))
                          for key in extra_keys])
                w.writerow(row)


def _dexpinv(a, u, k):
    # truncated inverse left-trivialized differential of exp, i.e. solving
    # g(t) = g0 exp(u(t)) with g^{-1} gdot = k gives udot = dexpinv_{-u}(k);
    # the omitted terms are O(|u|^4 |k|), below the local error of a
    # 4th-order step
    c1 = a.bracket(u, k)
    return k + 0.5 * c1 + a.bracket(u, c1) / 12.0


def _rkmk4_step(space, field, p, dt):
    a = space.algebra

    def rate(v, eta):
        q = PhasePoint(p.g.mul(grouplib.exp(a, v)), eta)
        xi, rho = field(q)
        return _dexpinv(a, v, xi), rho

    z = np.zeros(a.dim)
    k1v, k1e = rate(z, p.eta)
    k2v, k2e = rate(0.5 * dt * k1v, p.eta + 0.5 * dt * k1e)
    k3v, k3e = rate(0.5 * dt * k2v, p.eta + 0.5 * dt * k2e)
    k4v, k4e = rate(dt * k3v, p.eta + dt * k3e)
    v = dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    eta = p.eta + dt * (k1e + 2 * k2e + 2 * k3e + k4e) / 6.0
    return PhasePoint(p.g.mul(grouplib.exp(a, v)), eta)


def _ambient_rk4_step(space, field, p, dt):
    # integrate the matrix ODE directly, then reproject via factorization
    a = space.algebra

    def rate(gm, eta):
        q = PhasePoint(grouplib.GroupPoint(a, gm), eta)
        xi, rho = field(q)
        return gm @ a.vec_to_mat(xi), rho

    g0 = p.g.matrix
    k1g, k1e = rate(g0, p.eta)
    k2g, k2e = rate(g0 + 0.5 * dt * k1g, p.eta + 0.5 * dt * k1e)
    k3g, k3e = rate(g0 + 0.5 * dt * k2g, p.eta + 0.5 * dt * k2e)
    k4g, k4e = rate(g0 + dt * k3g, p.eta + dt * k3e)
    gm = g0 + dt * (k1g + 2 * k2g + 2 * k3g + k4g) / 6.0
    gp_, gm_ = grouplib.GroupPoint(a, gm).factors()
    return PhasePoint(gp_.mul(gm_), p.eta + dt * (k1e + 2 * k2e
                                                  + 2 * k3e + k4e) / 6.0)


def _integrate(space, field, obs, p0, cfg, fiber=None):
    step = _rkmk4_step if cfg.method == "rkmk4" else _ambient_rk4_step
    times = [0.0]
    points = [p0]
    energies = [obs.value(p0)]
    drift_g = [0.0]
    drift_eta = [0.0]
    p = p0
    for k in range(cfg.steps):
        p = step(space, field, p, cfg.dt)
        times.append((k + 1) * cfg.dt)
        points.append(p)
        energies.append(obs.value(p))
        if fiber is not None:
            gm, em = space.fibration(p)
            drift_g.append(float(np.abs(gm.matrix
                                        - fiber.g_minus.matrix).max()))
            drift_eta.append(float(np.abs(em - fiber.eta_minus).max()))
        else:
            drift_g.append(0.0)
            drift_eta.append(0.0)
    return Trajectory(times, points, energies,
                      extras={"drift_gminus": np.array(drift_g),
                              "drift_etaminus": np.array(drift_eta)})


def flow_full(space, obs, p0, cfg):
    """Integrate the unconstrained Hamiltonian flow of obs from p0."""

    def field(p):
        return space.ham_vf_from_diff(space.differential(obs, p), p)

    return _integrate(space, field, obs, p0, cfg)


def flow_fiber(space, obs, p0, fiber, cfg):
    """Integrate the restricted (Dirac) flow; (g-, eta-) stay frozen."""
    space._require_on_fiber(p0, fiber)

    def field(p):
        return dirac_field(space, obs, p)

    return _integrate(space, field, obs, p0, cfg, fiber=fiber)


def legendre_map(space, e_op, p, fiber):
    """Fiber momentum to velocity: returns g+^{-1} d/dt g+ as coordinates."""
    space._require_on_fiber(p, fiber)
    a = space.algebra
    gp, gm = p.g.factors()
    eta_plus = p.eta - fiber.eta_minus
    gg, bb = e_op.blocks_at(gp)
    lhs = a.psi_bar(grouplib.coadjoint_star(gm.inv(), eta_plus))
    em_vec = a.psi_bar(fiber.eta_minus)
    rhs_known = (-bb @ a.psi_bar(space.C.value(gp.inv()))
                 + bb @ em_vec - a.project(gm.ad_matrix() @ em_vec, "minus"))
    pi, mi = a.plus_indices, a.minus_indices
    gdot_plus = np.linalg.solve(gg[np.ix_(mi, pi)], (lhs - rhs_known)[mi])
    gdot = np.zeros(a.dim)
    gdot[pi] = gdot_plus
    return gdot


def legendre_inverse(space, e_op, g_plus, gdot, fiber):
    """Velocity to fiber momentum: the point (g+ g-, eta) with matching g+dot."""
    a = space.algebra
    gm = fiber.g_minus
    gg, bb = e_op.blocks_at(g_plus)
    em_vec = a.psi_bar(fiber.eta_minus)
    val = (gg @ gdot - bb @ a.psi_bar(space.C.value(g_plus.inv()))
           + bb @ em_vec - a.project(gm.ad_matrix() @ em_vec, "minus"))
    eta_plus = grouplib.coadjoint_star(gm, a.psi(val))
    return space.fiber_point(fiber, g_plus, eta_plus)


def collectivity_check(space, e_op, traj, fiber, samples=5):
    """Residuals witnessing that the quadratic flow is collective.

    Returns a dict with three maxima over sampled trajectory times:
    the collective form of the velocity field, the coadjoint-orbit equation
    for the extended momentum, and the orbit reconstruction through the
    finite fiber action.
    """
    a = space.algebra
    obs = hamiltonian_quadratic(space, e_op)
    idx = np.linspace(0, len(traj.points) - 2, samples).astype(int)
    dt = traj.times[1] - traj.times[0]
    res_field = 0.0
    res_orbit = 0.0
    res_recon = 0.0
    for i in idx:
        p = traj.points[i]
        # the generator direction: first slot of L_h(J) for quadratic h
        x = p.g.ad_matrix() @ space.differential(obs, p).deltaF
        xi_gen, rho_gen = space.fiber_generator(x, p, fiber)
        xi, rho = dirac_field(space, obs, p)
        res_field = max(res_field, np.abs(xi - xi_gen).max(),
                        np.abs(rho - rho_gen).max())
        # extended coadjoint orbit equation for J along the flow
        mu0_, _ = space.momentum_ext(traj.points[i])
        mu1_, _ = space.momentum_ext(traj.points[i + 1])
        if i > 0:
            mum_, _ = space.momentum_ext(traj.points[i - 1])
            jdot = (mu1_ - mum_) / (2 * dt)
            pred = -(a.coad(x, mu0_) + space.c2.hat(x))
            res_orbit = max(res_orbit, np.abs(jdot - pred).max())
        # one finite step reconstructed through the fiber action
        q = space.group_action_d(grouplib.exp(a, x, dt), p, fiber)
        res_recon = max(res_recon,
                        float(np.abs(q.eta - traj.points[i + 1].eta).max()),
                        float(np.abs(q.g.matrix
                                     - traj.points[i + 1].g.matrix).max()))
    return {"field": float(res_field), "orbit": float(res_orbit),
            "reconstruction": float(res_recon)}
