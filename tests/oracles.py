"""Verification oracles shared by the tests.

Each oracle is a slow, generic evaluation of something the library computes
in closed form or analytically: finite-difference differentials, the scalar
constraint functions behind the constraint frame, the explicit inverse of
the Dirac matrix, and algebra coordinates through the matrix logarithm.
The library itself never calls them.
"""

import numpy as np
import scipy.linalg

from liedouble import group
from liedouble.phase import Differential, Observable, PhasePoint


def fd_differential(F, p, step=1e-5):
    """Central differences of F.value at p.

    Group slot along right translations by exp(h e_i), fiber slot along
    the coordinate directions, with h = step (1 + |eta_i|).
    """
    a = p.algebra
    dF = np.zeros(a.dim)
    deltaF = np.zeros(a.dim)
    e = np.eye(a.dim)
    for i in range(a.dim):
        h = step * (1.0 + abs(float(p.eta[i])))
        dF[i] = (F.value(PhasePoint(p.g.mul(group.exp(a, e[i], h)), p.eta))
                 - F.value(PhasePoint(p.g.mul(group.exp(a, e[i], -h)),
                                      p.eta))) / (2 * h)
        deltaF[i] = (F.value(PhasePoint(p.g, p.eta + h * e[i]))
                     - F.value(PhasePoint(p.g, p.eta - h * e[i]))) / (2 * h)
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
    obs = []
    for ta in space.frame.T_plus:
        mu = a.psi(ta)
        obs.append(fd_observable(
            lambda q, mu=mu: mu @ log_coords(gm0_inv.mul(q.g_minus()))))
    for tb in space.frame.T_minus:
        obs.append(fd_observable(lambda q, tb=tb: q.eta @ tb))
    return obs


def dirac_matrix_inverse(dmat):
    """Closed-form inverse of [[0, I], [-I, Omega]]: [[Omega, -I], [I, 0]]."""
    n = dmat.shape[0] // 2
    omega = dmat[n:, n:]
    eye = np.eye(n)
    return np.block([[omega, -eye], [eye, np.zeros((n, n))]])
