"""Lagrangian side of the constrained dynamics and the sigma-model forms.

Everything here lives on a fiber N(g-, eta-): the canonical 1-form whose
exterior derivative reproduces the restricted symplectic structure, the
mechanical Lagrangian in its equivalent closed forms, the Euler-Lagrange
residual, and the dressing-type bivector entering the first-order form of
the field-theory Lagrangian. On a stack of points the Lagrangians give one
value per point and the operator identity its largest residual.
"""

import numpy as np

from . import group as grouplib
from .algebra import _dot, _max_abs, _sub_blocks
from .dynamics import (_carrier, hamiltonian_quadratic, legendre_inverse,
                       legendre_map)

__all__ = ["r_operator", "dtheta_check", "lagrangian_N", "el_residual",
           "bivector_pi", "operator_identity_check", "lagrangian_density"]

DTHETA_PAIRS = 4  # random pairs of chart directions that dtheta_check reads
DTHETA_STEP = 1e-4  # its central-difference step


def r_operator(e_op, g, sign=1):
    """R_g(+-) = B_g +- G_g as (..., N, d, d) site blocks g+ -> g-."""
    gg, bb = e_op.blocks_at(g)
    return bb + sign * gg


def _r_form(space, e_op, g_plus, x, w):
    """(1/2) (R_g(+) (x + w), x - w), one value per point of a stack."""
    rp = r_operator(e_op, g_plus, +1)
    return 0.5 * space.algebra.pair(np.matvec(rp, x + w), x - w)


def dtheta_check(space, fiber, p, rng):
    """Max residual of omega_c|_N = -dTheta over random chart directions.

    The fiber is charted by (u, w) -> (g+ exp(sum u_a T_a) g-, eta+ + w).
    Coordinate vector fields commute, so dTheta reduces to antisymmetrized
    partial derivatives of the chart components of Theta. The pairs of
    directions are one stack; NaN in any of them is the result.
    """
    a = space.algebra
    space._require_on_fiber(p, fiber)
    gp0 = p.g_plus()
    eta_p0 = p.eta - fiber.eta_minus
    axes, _ = space.frame()
    n = len(axes)

    def chart(uw):
        # (..., 2n) rows (u, w) to the coordinates sum_a u_a T_a, w_a T_a
        v = uw.reshape(uw.shape[:-1] + (2, n)) @ axes.reshape(n, -1)
        v = v.reshape(v.shape[:-1] + a.shape)
        return space.fiber_point(fiber, gp0.mul(grouplib.exp(
            a, v[..., 0, :, :])), eta_p0 + v[..., 1, :, :])

    def tangent(uw, duw):
        # central difference of the chart at uw along duw
        q1, q0 = chart(uw + duw), chart(uw - duw)
        xi = a.mat_to_vec(chart(uw).g.inv().matrix
                          @ (q1.g.matrix - q0.g.matrix)) / (2 * DTHETA_STEP)
        return xi, (q1.eta - q0.eta) / (2 * DTHETA_STEP)

    # one choice call per pair, as rng.choice draws no stack of them
    i, j = np.array([rng.choice(2 * n, size=2, replace=False)
                     for _ in range(DTHETA_PAIRS)]).T
    e = DTHETA_STEP * np.eye(2 * n)
    ei, ej, zero = e[i], e[j], np.zeros((DTHETA_PAIRS, 2 * n))
    # Theta_j at +-e_i and Theta_i at +-e_j, then t_i and t_j at 0;
    # <Theta, t> = <eta, xi> for a fiber tangent with group slot xi
    at = np.stack([ei, -ei, ej, -ej, zero, zero])
    xi, rho = tangent(at, np.stack([ej, ej, ei, ei, ei, ej]))
    theta = _dot(chart(at[:4]).eta, xi[:4])
    # d/di Theta_j - d/dj Theta_i by central differences
    dtheta = ((theta[0] - theta[1]) / (2 * DTHETA_STEP)
              - (theta[2] - theta[3]) / (2 * DTHETA_STEP))
    omega = space.omega_c(p, (xi[4], rho[4]), (xi[5], rho[5]))
    return _max_abs(omega + dtheta)


def lagrangian_N(space, e_op, g_plus, gdot, fiber, route="r-form"):
    """Mechanical Lagrangian on the fiber, gdot = g+^{-1} d/dt g+.

    Routes: "legendre" goes through the inverse Legendre transform and the
    Hamiltonian; "blocks" and "r-form" are the closed expressions in the
    metric/two-form blocks at g+. All three agree on admissible fibers.
    """
    a = space.algebra
    if route == "legendre":
        h = hamiltonian_quadratic(space, e_op)
        p = legendre_inverse(space, e_op, g_plus, gdot, fiber)
        xi = grouplib.adjoint(fiber.g_minus.inv(), gdot)
        return _dot(p.eta, xi) - h.value(p)
    v = a.psi_bar(_carrier(space, g_plus, fiber.eta_minus))
    if route == "r-form":
        return _r_form(space, e_op, g_plus, gdot, v)
    if route == "blocks":
        gg, bb = e_op.blocks_at(g_plus)
        return (0.5 * a.pair(np.matvec(gg, gdot), gdot)
                + a.pair(gdot, np.matvec(bb, v))
                - 0.5 * a.pair(v, np.matvec(gg, v)))
    raise ValueError("unknown route %r" % route)


def el_residual(space, e_op, traj, fiber):
    """Euler-Lagrange residual along a fiber trajectory (interior points).

    The momentum-like quantity G gdot + B psi_bar(eta- - C(g+^{-1})) is
    differentiated with centered stencils; the force side is evaluated
    exactly, so the residual decays at the order of the stencil. The
    trajectory's points are one stack.
    """
    a = space.algebra
    dt = traj.times[1] - traj.times[0]
    p = traj.points
    gp = p.g_plus()
    gg, bb = e_op.blocks_at(gp)
    gdot = legendre_map(space, e_op, p, fiber)
    v = a.psi_bar(_carrier(space, gp, fiber.eta_minus))
    mom = np.matvec(gg, gdot) + np.matvec(bb, v)  # the first force term
    force_b = np.matvec(bb, gdot) + np.matvec(gg, v)
    em = a.psi_bar(fiber.eta_minus)
    rhs = (-a.project(a.bracket(mom, force_b), "minus")
           - a.project(a.bracket(em, force_b), "minus")
           - a.psi_bar(space.c2.hat(force_b)))
    lhs = (mom[2:] - mom[:-2]) / (2 * dt)
    return _max_abs(lhs - rhs[1:-1])


def bivector_pi(algebra, g_plus):
    """pi_+^R(g+) = -Pi_+ Ad_{g+} Pi_+ Ad_{g+^{-1}} Pi_- as (..., N, d, d)
    site blocks."""
    sel_p = algebra.selector("plus")
    return -(sel_p @ g_plus.ad_matrix() @ sel_p
             @ g_plus.inv().ad_matrix() @ algebra.selector("minus"))


def operator_identity_check(space, e_op, g_plus, sign=1):
    """Residual of the twisting identity relating R_g^{-1} to the bivector.

    Ad_{g+} (R_g)^{-1} Pi_{g-} Ad_{g+^{-1}} Pi_{g-}
        = ((R_e)^{-1} - pi_+^R(g+)) Pi_{g-}
    """
    a = space.algebra
    sp, sm = a.site_plus, a.site_minus
    adg = g_plus.ad_matrix()
    sel_m = a.selector("minus")

    def r_inv(g):
        # the (plus, minus) blocks invert the (minus, plus) blocks of R_g
        r = r_operator(e_op, g, sign)
        out = np.zeros_like(r)
        out[..., sp[:, None], sm] = np.linalg.inv(_sub_blocks(r, sm, sp))
        return out

    lhs = adg @ r_inv(g_plus) @ sel_m @ g_plus.inv().ad_matrix() @ sel_m
    rhs = (r_inv(grouplib.identity(a)) - bivector_pi(a, g_plus)) @ sel_m
    return _max_abs(lhs - rhs)


def lagrangian_density(space, e_op, g_plus, gdot, gprime, fiber, k):
    """First-order field Lagrangian density at one site: the r-form at
    (gdot, psi_bar(eta-) + k gprime), gdot and gprime the left-trivialized
    time and space derivatives of g+ (light-cone a+- = gdot +- k gprime).
    It is the mechanical Lagrangian where that slot is the carrier
    psi_bar(eta- - C(g+^{-1})): with the level-k lattice cocycle and
    gprime = g+^{-1} d_s g+ for unitary g+, and at k = 0 only where
    C(g+^{-1}) = 0. One value per point of a stack.
    """
    return _r_form(space, e_op, g_plus, gdot,
                   space.algebra.psi_bar(fiber.eta_minus) + k * gprime)
