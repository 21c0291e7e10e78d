"""Verification oracles shared by the tests.

Each oracle is a slow, generic evaluation of something the library computes
in closed form or analytically: finite-difference differentials, the scalar
constraint functions behind the constraint frame, the explicit inverse of
the Dirac matrix, algebra coordinates through the matrix logarithm, dense
matrices of site-blocked operators and flat coordinates, the cocycle
derivatives at the inverse point as whole operators, the ambient RK4
integrator, the energy eigenspaces as graphs, the full Hamiltonian vector
field, the restricted field and the symmetry generator assembled from the
factors of g, the Legendre map solved from the energy's metric/two-form
blocks, the exponential's scalar functions as Taylor series, the adjoint
sandwich through the Kronecker product, and the factorizations of the
built-in groups through QR and a linear solve, and the Euler-Lagrange and
collectivity residuals evaluated one trajectory point at a time, and
single points stacked by hand (``stack_points``); the
``brackets`` experiment's rows, the chart check of -dTheta and the lattice
convergence study evaluated one point, pair or sample at a time. The
library itself never calls them.
"""

import math

import numpy as np
import scipy.linalg

from liedouble import dynamics, group, loop
from liedouble.algebra import cocycle_identity_residual
from liedouble.phase import Differential, Observable, PhasePoint


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


def dense(op, n_sites=1):
    """The dense (N d, N d) matrix of an operator: an (N, d, d) stack of
    site blocks, or one (d, d) block repeated on n_sites sites."""
    op = np.asarray(op)
    if op.ndim == 2:
        op = np.broadcast_to(op, (n_sites,) + op.shape)
    return _block_diag(op)


def flat(x):
    """(..., N, d) coordinates as flat (..., N d) rows."""
    x = np.asarray(x)
    return x.reshape(x.shape[:-2] + (-1,))


def is_identity(g, tol=1e-12):
    return np.abs(g.matrix - g.algebra.identity_matrix).max() < tol


def solve_factorize(m):
    """SO(3) x R^3 = SO(3) R^3 on (..., 4, 4) stacks: (R, 0) (I, R^{-1} v)
    with R^{-1} v by numpy's solve."""
    gp = np.broadcast_to(np.eye(4), m.shape).copy()
    gp[..., :3, :3] = m[..., :3, :3]
    gm = np.broadcast_to(np.eye(4), m.shape).copy()
    gm[..., :3, 3:] = np.linalg.solve(m[..., :3, :3], m[..., :3, 3:])
    return gp, gm


def qr_factorize(m):
    """SL(2,C) = SU(2) SB(2,C) on (..., 2, 2) stacks by numpy's QR, with
    the phases of r's diagonal moved into q."""
    q, r = np.linalg.qr(m)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    ph = ph / np.abs(ph)
    q = q * ph[..., None, :]
    r = (1.0 / ph)[..., :, None] * r
    return q, r


def cosh_sinhc_series(s2, remainders=False):
    """(cosh s, sinh(s)/s) from s^2, optionally with (cosh s - 1)/s^2 and
    (sinh(s)/s - 1)/s^2. For |s^2| < 1, exactly so at s = 0, they are the
    series sum_k s2^k / (2k + m)! with m = 0, 1, 2, 3 by Horner's rule;
    beyond, the direct quotients."""
    big = np.abs(s2) >= 1.0
    small = np.where(big, 0.0, s2)
    f = []
    for m in range(4 if remainders else 2):
        f.append(np.zeros_like(small))
        for k in range(9, -1, -1):
            f[m] = f[m] * small + 1.0 / math.factorial(2 * k + m)
    if not big.any():
        return f
    s2_big = np.where(big, s2, 1.0)
    s = np.emath.sqrt(s2_big)
    direct = [np.cosh(s), np.sinh(s) / s]
    if not np.iscomplexobj(s2):
        direct = [d.real for d in direct]  # s^2 < 0 is a real angle, s = i t
    direct += [(d - 1.0) / s2_big for d in direct]
    return [np.where(big, d, fm) for d, fm in zip(direct, f)]


def sandwich_kron(algebra, left, right):
    """(N, d, d) blocks of X -> left_j X right_j for (N, m, m) stacks, from
    the row-major identity vec(A E B) = kron(A, B^T) vec(E), each image
    read off by the algebra's coordinates of flattened matrices."""
    m = algebra.basis_matrices.shape[-1]
    kron = np.einsum("jab,jcd->jadbc", left, right).reshape(-1, m * m,
                                                             m * m)
    cols = kron @ algebra.basis_matrices.reshape(algebra.site_dim, m * m).T
    return algebra._coords(cols.swapaxes(1, 2)).swapaxes(1, 2)


def loop_differential_inv(loop_algebra, k, g):
    """The exact inverse-point derivative M of the level-k lattice cocycle
    as a dense 3-band matrix: M X = d/dt C_k((g exp(tX))^{-1}) at t = 0.

    With h = g^{-1} site-wise, d/dt [(d_s h) h^{-1}] at site j is
    q_j X_j - (X_{j+1} h_{j+1} - X_{j-1} h_{j-1}) h_j^{-1} / (2 ds),
    q = (d_s h) h^{-1}; the bands take X from sites j - 1, j and j + 1.
    """
    lattice = loop_algebra.lattice
    base = lattice.base
    h, hinv = g.inv().matrix, g.matrix
    eye = np.broadcast_to(np.eye(h.shape[-1]), h.shape)
    q = loop.d_s(lattice, h, -3) @ hinv

    def side(o):
        # -+ X_{j+o} h_{j+o} h_j^{-1} / (2 ds), from d_s at site j, as the
        # block of row site j and column site j + o
        blocks = -o / (2.0 * lattice.ds) * base.sandwich(
            eye, np.roll(h, -o, axis=0) @ hinv)
        return _block_diag(np.roll(blocks, o, axis=0), -o)

    coords = _block_diag(base.sandwich(q, eye)) + side(1) + side(-1)
    return k * dense(loop_algebra.pairing, lattice.n_sites) @ coords


def coboundary_differential_inv(algebra, mu0, g):
    """The same derivative for the coboundary of mu0, as an operator:
    column i is coad(e_i, C(g^{-1})) + hat(e_i)."""
    c = group.GroupCocycle.coboundary(algebra, mu0)
    return (algebra.bracket_form(c.value(g.inv())).swapaxes(-1, -2)
            + c.infinitesimal().matrix)


def ambient_rk4_step(space, field, p, dt):
    """Classical RK4 on the matrix ODE, reprojected by the factorization."""
    a = space.algebra

    def rate(gm, eta):
        q = PhasePoint(group.GroupPoint(a, gm), eta)
        xi, rho = field(q)
        return gm @ a.vec_to_mat(xi), rho

    g0 = p.g.matrix
    k1g, k1e = rate(g0, p.eta)
    k2g, k2e = rate(g0 + 0.5 * dt * k1g, p.eta + 0.5 * dt * k1e)
    k3g, k3e = rate(g0 + 0.5 * dt * k2g, p.eta + 0.5 * dt * k2e)
    k4g, k4e = rate(g0 + dt * k3g, p.eta + dt * k3e)
    gm = g0 + dt * (k1g + 2 * k2g + 2 * k3g + k4g) / 6.0
    gp_, gm_ = group.GroupPoint(a, gm).factors()
    return PhasePoint(gp_.mul(gm_), p.eta + dt * (k1e + 2 * k2e
                                                  + 2 * k3e + k4e) / 6.0)


def ambient_flow_fiber(space, obs, p0, fiber, cfg):
    """dynamics.flow_fiber with the ambient RK4 step in place of RKMK4."""
    space._require_on_fiber(p0, fiber)
    return dynamics._integrate(
        space, lambda p: dynamics.dirac_field(space, obs, p, fiber), obs, p0,
        cfg, fiber=fiber, step=ambient_rk4_step)


def stack_points(points):
    """Single points as one stack, its leading axis the list's."""
    g = group.GroupPoint(points[0].algebra,
                         np.stack([q.g.matrix for q in points]))
    return PhasePoint(g, np.stack([q.eta for q in points]))


def eigenspace_basis(e_op, g, sign):
    """Basis of the +-1 eigenspace of E_g as an (n, N, d) array of graphs."""
    a = e_op.algebra
    gg, bb = e_op.blocks_at(g)
    rows = []
    for i in a.plus_indices:
        x = np.zeros(a.shape)
        x.flat[i] = 1.0
        rows.append(x + np.matvec(bb + sign * gg, x))
    return np.array(rows)


def ham_vf_full(space, F, p):
    """(g delta F, coad_{delta F} eta - g dF + Ad*_g c_hat(Ad_g delta F))."""
    return space.ham_vf_from_diff(space.differential(F, p), p)


def restricted_field_at_point(space, d, p):
    """The restricted field with the dressed projector of the point's own
    g-, its factors applied to vectors: with A = Ad_{g-},
    xi = psi_bar(A^T P Pi_+ A deltaF), rho = A^T Pi_+ P A psi_bar(y),
    y = coad_xi eta - dF."""
    a = space.algebra
    adm = p.g_minus().ad_matrix()
    xi = a.psi_bar(np.vecmat(a.psi(a.project(np.matvec(adm, d.deltaF),
                                             "plus")), adm))
    y = a.coad(xi, p.eta) - d.dF
    rho = np.vecmat(a.project(a.psi(np.matvec(adm, a.psi_bar(y))), "plus"),
                    adm)
    return xi, rho


def fiber_generator_direct(space, x, p):
    """The restricted field of the momentum function j_x, from g = g+ g-.

    With w = Ad_{g+^{-1}} x: xi = Ad_{g-}^{-1} Pi_+ w and
    rho = -Q^T (coad(Ad_{g-}^{-1} Pi_- w, eta) + c_hat(Ad_{g^{-1}} x)),
    Q the dressed projector of g-.
    """
    a = space.algebra
    gp, gm = p.g.factors()
    w = group.adjoint(gp.inv(), x)
    adm_inv = gm.inv().ad_matrix()
    xi = np.matvec(adm_inv, a.project(w, "plus"))
    inner = (a.coad(np.matvec(adm_inv, a.project(w, "minus")), p.eta)
             + space.c2.hat(group.adjoint(p.g.inv(), x)))
    return xi, -np.vecmat(inner, space.dressed_projector(gm))


def legendre_map_blocks(space, e_op, p, fiber):
    """The Legendre map from the metric/two-form blocks (G, B) at g+:
    solves G gdot = psi_bar(Ad*_{g-^{-1}} eta+) + B v + Pi_- Ad_{g-} eta-,
    v = psi_bar(C(g+^{-1}) - eta-), on G's (minus, plus) blocks. It is the
    restricted flow's g+ velocity on admissible fibers only."""
    a = space.algebra
    gp, gm = p.g.factors()
    gg, bb = e_op.blocks_at(gp)
    v = a.psi_bar(space.C.value(gp.inv()) - fiber.eta_minus)
    rhs = (a.psi_bar(group.coadjoint_star(gm.inv(), p.eta - fiber.eta_minus))
           + np.matvec(bb, v)
           + a.project(group.adjoint(gm, a.psi_bar(fiber.eta_minus)),
                       "minus"))
    sp, sm = a.site_plus, a.site_minus
    gdot = np.zeros(a.shape)
    gdot[:, sp] = np.linalg.solve(gg[:, sm[:, None], sp],
                                  rhs[:, sm, None])[..., 0]
    return gdot


def fd_differential(F, p, step=1e-5):
    """Central differences of F.value at p.

    Group slot along right translations by exp(h e_i), fiber slot along
    the coordinate directions, with h = step (1 + |eta_i|).
    """
    a = p.algebra
    dF = np.zeros(a.shape)
    deltaF = np.zeros(a.shape)
    e = np.eye(a.dim).reshape((-1,) + a.shape)
    for i in range(a.dim):
        h = step * (1.0 + abs(float(p.eta.flat[i])))
        dF.flat[i] = (
            F.value(PhasePoint(p.g.mul(group.exp(a, e[i], h)), p.eta))
            - F.value(PhasePoint(p.g.mul(group.exp(a, e[i], -h)), p.eta))
        ) / (2 * h)
        deltaF.flat[i] = (F.value(PhasePoint(p.g, p.eta + h * e[i]))
                          - F.value(PhasePoint(p.g, p.eta - h * e[i]))
                          ) / (2 * h)
    if not np.all(np.isfinite(dF)) or not np.all(np.isfinite(deltaF)):
        raise ArithmeticError("non-finite differential")
    return Differential(dF, deltaF)


def fd_observable(fn):
    """An Observable of fn whose differential is fd_differential."""
    obs = Observable(fn, diff=lambda p: fd_differential(obs, p))
    return obs


def log_coords(g):
    """Algebra coordinates of the matrix logarithm (principal branch)."""
    m = g.matrix
    lg = [scipy.linalg.logm(mj) for mj in m.reshape((-1,) + m.shape[-2:])]
    return g.algebra.mat_to_vec(np.reshape(lg, m.shape))


def constraint_observables(space, p):
    """The scalar constraints whose differentials the frame realizes at p.

    First n: left-log coordinates of g- relative to g-(p), paired with
    psi(T_a); last n: <eta, T^a>. Their differentials are finite
    differences, an independent check of constraint_differentials.
    """
    a = space.algebra
    gm0_inv = p.g_minus().inv()
    t_plus, t_minus = space.frame()
    obs = []
    for ta in t_plus:
        mu = a.psi(ta)
        obs.append(fd_observable(
            lambda q, mu=mu: np.vdot(mu, log_coords(gm0_inv.mul(
                q.g_minus())))))
    for tb in t_minus:
        obs.append(fd_observable(lambda q, tb=tb: np.vdot(q.eta, tb)))
    return obs


def dirac_matrix_inverse(dmat):
    """Closed-form inverse of [[0, I], [-I, Omega]]: [[Omega, -I], [I, 0]]."""
    n = dmat.shape[0] // 2
    omega = dmat[n:, n:]
    eye = np.eye(n)
    return np.block([[omega, -eye], [eye, np.zeros((n, n))]])


def el_residual_per_point(space, e_op, traj, fiber):
    """``sigma.el_residual`` with each trajectory point on its own."""
    a = space.algebra
    dt = traj.times[1] - traj.times[0]

    def pieces(p):
        gp = p.g_plus()
        gg, bb = e_op.blocks_at(gp)
        gdot = dynamics.legendre_map(space, e_op, p, fiber)
        v = a.psi_bar(dynamics._carrier(space, gp, fiber.eta_minus))
        mom = np.matvec(gg, gdot) + np.matvec(bb, v)
        force_b = np.matvec(bb, gdot) + np.matvec(gg, v)
        em = a.psi_bar(fiber.eta_minus)
        rhs = (-a.project(a.bracket(mom, force_b), "minus")
               - a.project(a.bracket(em, force_b), "minus")
               - a.psi_bar(space.c2.hat(force_b)))
        return mom, rhs

    t = len(traj.times)
    moms, rhss = zip(*[pieces(traj.points[k]) for k in range(t)])
    return np.max([0.0] + [
        float(np.abs((moms[k + 1] - moms[k - 1]) / (2 * dt) - rhss[k]).max())
        for k in range(1, t - 1)])


def collectivity_per_point(space, e_op, traj, fiber, samples=5):
    """``dynamics.collectivity_check`` with each sampled point on its
    own."""
    a = space.algebra
    obs = dynamics.hamiltonian_quadratic(space, e_op)
    idx = np.linspace(0, len(traj.times) - 2, samples).astype(int)
    dt = traj.times[1] - traj.times[0]
    res = {"field": 0.0, "orbit": 0.0, "reconstruction": 0.0}
    for i in idx:
        p, nxt = traj.points[i], traj.points[i + 1]
        x = np.matvec(p.g.ad_matrix(), space.differential(obs, p).deltaF)
        xi_gen, rho_gen = dynamics.dirac_field(space,
                                               space.momentum_fn(x), p, fiber)
        xi, rho = dynamics.dirac_field(space, obs, p, fiber)
        res["field"] = np.max([res["field"], np.abs(xi - xi_gen).max(),
                               np.abs(rho - rho_gen).max()])
        if i > 0:
            jdot = (space.momentum_ext(nxt)[0]
                    - space.momentum_ext(traj.points[i - 1])[0]) / (2 * dt)
            pred = -(a.coad(x, space.momentum_ext(p)[0]) + space.c2.hat(x))
            res["orbit"] = np.maximum(res["orbit"],
                                      np.abs(jdot - pred).max())
        q = space.group_action_d(group.exp(a, x, dt), p, fiber)
        res["reconstruction"] = np.max([
            res["reconstruction"], np.abs(q.eta - nxt.eta).max(),
            np.abs(q.g.matrix - nxt.g.matrix).max()])
    return res


def bracket_rows_per_point(space, fiber, rng, points, pairs):
    """The ``brackets`` experiment's CSV rows with each fiber point and
    each pair of momentum functions on its own, drawn one call at a time."""
    rows = []
    for i in range(points):
        p = space.random_fiber_point(fiber, rng, 0.3)
        for j in range(pairs):
            f, g = (space.momentum_fn(rng.standard_normal(space.algebra.shape))
                    for _ in range(2))
            closed = space.dirac_bracket(f, g, p, fiber)
            oracle = space.dirac_oracle(f, g, p)
            reduced = space.dirac_bracket_reduced(f, g, p, fiber)
            rows.append([i, j, closed, oracle,
                         abs(closed - oracle) / (1 + abs(closed)),
                         abs(closed - reduced) / (1 + abs(closed))])
    return rows


def dtheta_check_per_pair(space, fiber, p, rng, pairs=4, step=1e-4):
    """``sigma.dtheta_check`` with each pair of chart directions and each
    chart point on its own."""
    a = space.algebra
    gp0 = p.g_plus()
    eta_p0 = p.eta - fiber.eta_minus
    axes, _ = space.frame()
    n = len(axes)
    rows = axes.reshape(n, -1)

    def chart(u, w):
        gp = gp0.mul(group.exp(a, (u @ rows).reshape(a.shape)))
        return space.fiber_point(fiber, gp,
                                 eta_p0 + (w @ rows).reshape(a.shape))

    def tangent(u, w, direction):
        duw = np.zeros(2 * n)
        duw[direction] = step
        q1 = chart(u + duw[:n], w + duw[n:])
        q0 = chart(u - duw[:n], w - duw[n:])
        xi = a.mat_to_vec(chart(u, w).g.inv().matrix
                          @ (q1.g.matrix - q0.g.matrix)) / (2 * step)
        return xi, (q1.eta - q0.eta) / (2 * step)

    def theta_component(u, w, direction):
        return float(np.vdot(chart(u, w).eta, tangent(u, w, direction)[0]))

    worst = 0.0
    for _ in range(pairs):
        i, j = rng.choice(2 * n, size=2, replace=False)
        zu = np.zeros(n)
        ei = np.zeros(2 * n)
        ei[i] = step
        ej = np.zeros(2 * n)
        ej[j] = step
        didj = (theta_component(zu + ei[:n], ei[n:], j)
                - theta_component(zu - ei[:n], -ei[n:], j)) / (2 * step)
        djdi = (theta_component(zu + ej[:n], ej[n:], i)
                - theta_component(zu - ej[:n], -ej[n:], i)) / (2 * step)
        omega = space.omega_c(p, tangent(zu, np.zeros(n), i),
                              tangent(zu, np.zeros(n), j))
        worst = np.maximum(worst, abs(omega + (didj - djdi)))
    return worst


def convergence_study_per_sample(base, k, sizes=(8, 16, 32, 64), rng=None,
                                 samples=4):
    """The residuals of ``loop.convergence_study`` with each sample on its
    own, its coefficient vectors drawn one call at a time."""
    rng = rng or np.random.default_rng(0)

    def coeffs(modes, scale):
        return [(scale * rng.standard_normal(base.dim),
                 scale * rng.standard_normal(base.dim))
                for _ in range(modes + 1)]

    alg_sets = [coeffs(2, 0.4) for _ in range(3 * samples)]
    grp_sets = [coeffs(1, 0.25) for _ in range(2 * samples)]
    res = {"jacobi": [], "one_cocycle": [], "compatibility": []}
    for n in sizes:
        alg = loop.build_loop_double(base, n)
        c2 = loop.loop_two_cocycle(alg, k)
        cg = loop.loop_group_cocycle(alg, k)
        worst = dict.fromkeys(res, 0.0)
        for i in range(samples):
            x, y, z = (loop.sampled_loop(alg, c)
                       for c in alg_sets[3 * i:3 * i + 3])
            worst["jacobi"] = np.maximum(
                worst["jacobi"], abs(cocycle_identity_residual(c2, x, y, z)))
            xg, yg = (loop.sampled_loop(alg, c)
                      for c in grp_sets[2 * i:2 * i + 2])
            g, h = group.exp(alg, xg), group.exp(alg, yg)
            lhs = cg.value(g.mul(h))
            rhs = group.coadjoint_star(g.inv(), cg.value(h)) + cg.value(g)
            worst["one_cocycle"] = np.maximum(
                worst["one_cocycle"],
                float(np.abs(alg.psi_bar(lhs - rhs)).max()))
            comp = (c2.eval(group.adjoint(g, yg), group.adjoint(g, xg))
                    - c2.eval(yg, xg)
                    - np.vdot(cg.value(g.inv()), alg.bracket(yg, xg)))
            worst["compatibility"] = np.maximum(worst["compatibility"],
                                                abs(comp))
        for key in res:
            res[key].append(worst[key])
    return res
