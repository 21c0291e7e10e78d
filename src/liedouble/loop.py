"""Periodic-lattice loop doubles with the central-extension cocycles.

A loop over a base double h gives the algebra of maps S^1 -> h, discretized
on N equispaced sites with periodic central differences for the derivative.
The level-k two-cocycle c_k(X, Y) = (k/N) sum_j (X_j, (d_s Y)_j)_h and its
group counterpart C_k(l) = k psi((d_s l) l^{-1}) are exact antisymmetric
structures on the lattice, while identities relying on the Leibniz rule for
d_s (cocycle identity, the 1-cocycle property of C_k) hold up to O(ds^2)
and converge at second order under refinement.

Coordinates are (N, d) arrays and matrices (N, m, m) site stacks, so the
central difference is written once, in ``d_s``, along the site axis of
either: the cocycle's hat -k psi(d_s X) applies the uniform (d, d) block
-k P after it, and the value and pullback of C_k read it too. The exact
differential of C_k is never built as an operator: a Hamiltonian needs only
its transpose applied to one vector, which pulls a matrix functional back
through the same stencil site by site. The cocycle's value and that pullback
meet the basis through one per-site matrix, k psi o mat_to_vec and its
transpose, and their (N, m, m) site-stack products go through
``group.matmul``. A loop double inherits its base's group kernels
(exponential, inverse, factorizer), so one field-flow step costs O(N) in the
number of sites and calls no ``numpy.linalg`` routine.
"""

import numpy as np

from . import group as grouplib
from .algebra import (BasisAlgebra, TwoCocycle, _dot, _max_abs,
                      cocycle_identity_residual)
from .dynamics import flow_fiber

__all__ = ["LoopLattice", "build_loop_double", "d_s", "loop_two_cocycle",
           "loop_group_cocycle", "constant_loop", "sampled_loop", "check_cfl",
           "field_flow", "convergence_study"]

class LoopLattice:
    """N equispaced sites on the circle of circumference 2 pi."""

    def __init__(self, base, n_sites):
        n_sites = int(n_sites)
        if n_sites < 4 or n_sites % 2:
            raise ValueError("need an even number of sites, at least 4")
        self.base = base
        self.n_sites = n_sites
        self.ds = 2.0 * np.pi / n_sites
        self.s = self.ds * np.arange(n_sites)
        # the neighbours of each site
        self.next = np.roll(np.arange(n_sites), -1)
        self.prev = np.roll(np.arange(n_sites), 1)


def d_s(lattice, x, axis=-2):
    """Periodic central difference along the site axis: axis -2 of
    (..., N, d) coordinates, axis -3 of an (..., N, m, m) matrix stack."""
    tail = (slice(None),) * (-1 - axis)
    return ((x[(..., lattice.next) + tail] - x[(..., lattice.prev) + tail])
            / (2.0 * lattice.ds))


def build_loop_double(base, n_sites):
    """The lattice loop algebra of a base double, with (N, d) coordinates."""
    return BasisAlgebra(
        "loop-%s-N%d" % (base.name, int(n_sites)), base.labels,
        base.pairing, base.site_plus, base.site_minus,
        base.structure_constants, basis_matrices=base.basis_matrices,
        lattice=LoopLattice(base, n_sites),
        group_memberships=base.group_memberships, factorizer=base.factorizer,
        exponential=base.exponential, inverse=base.inverse)


class _LatticeTwoCocycle(TwoCocycle):
    """A two-cocycle whose hat applies its uniform, symmetric (d, d)
    ``matrix`` after ``d_s``."""

    def hat(self, x):
        return d_s(self.algebra.lattice, x) @ self.matrix


def loop_two_cocycle(loop_algebra, k):
    """c_k(X, Y) = (k / N) sum_j (X_j, (d_s Y)_j)_h, with hat -k psi(d_s X):
    ``matrix`` is the uniform -k P."""
    return _LatticeTwoCocycle(loop_algebra, -k * loop_algebra.pairing)


def loop_group_cocycle(loop_algebra, k):
    """C_k(l) = k psi((d_s l) l^{-1}) evaluated site-wise."""
    lattice = loop_algebra.lattice
    site_matrix = loop_algebra.identity_matrix.shape[1:]
    matmul = grouplib.matmul
    # k psi o mat_to_vec of one site as the (d, m*m) matrix K with
    # k psi(mat_to_vec(q)) = Re(q K^T) per site; its transpose takes delta
    # to the matrix functional delta K of k psi(delta)
    kpsi = loop_algebra._entries_transpose(
        (k * loop_algebra.pairing) @ loop_algebra._dual_basis.T)

    @grouplib._memo_last
    def log_derivative(h):
        # q = (d_s h) h^{-1}, which the value at h and the derivative at
        # h^{-1} share
        return matmul(d_s(lattice, h.matrix, -3), h.inv().matrix)

    def value(g):
        q = log_derivative(g)
        return (q.reshape(q.shape[:-2] + (-1,)) @ kpsi.T).real

    def differential_inv(g, delta):
        # Pullback of delta through the exact d/dt C_k((g exp(tX))^{-1}) of
        # the lattice expression, whose 1-cocycle property only holds to
        # the stencil order. With h = g^{-1} site-wise, the perturbed field
        # is exp(-tX) h and d/dt [(d_s h) h^{-1}] = q X - d_s(X h) h^{-1},
        # q = (d_s h) h^{-1}. Against the matrix functional w of
        # k psi(delta), Re sum w * (q X) pulls back to q^T w, and since the
        # central difference is antisymmetric, -Re sum w * (d_s(X h) h^{-1})
        # pulls back to d_s(w h^{-T}) h^T; the sum is read off against the
        # basis matrices.
        q = log_derivative(g.inv())
        h, hinv = g.inv().matrix, g.matrix
        w = (delta @ kpsi).reshape(delta.shape[:-1] + site_matrix)
        pulled = (matmul(q.mT, w)
                  + matmul(d_s(lattice, matmul(w, hinv.mT), -3),
                           h.mT))
        return loop_algebra.vec_to_mat_transpose(pulled)

    return grouplib.GroupCocycle(loop_two_cocycle(loop_algebra, k), value,
                                 differential_inv)


def constant_loop(loop_algebra, base_vector):
    """Embed a base algebra vector as a spatially constant loop."""
    return np.tile(np.asarray(base_vector, dtype=float),
                   (loop_algebra.n_sites, 1))


def sampled_loop(loop_algebra, coeffs):
    """Sample a band-limited loop X(s) = sum_m a_m cos(ms) + b_m sin(ms).

    coeffs is a sequence of (a_m, b_m) pairs of base-algebra vectors for
    m = 0, 1, ..., or an (..., M, 2, d) array of K such sequences, which
    gives K loops; the same coefficients define the same smooth loop on
    every lattice size, which is what refinement studies need.
    """
    s = loop_algebra.lattice.s[:, None]
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros(c.shape[:-3] + loop_algebra.shape)
    for m in range(c.shape[-3]):
        out += (np.cos(m * s) * c[..., m, :1, :]
                + np.sin(m * s) * c[..., m, 1:, :])
    return out


def check_cfl(lattice, dt, k):
    """Raise a ValueError unless dt <= ds/|k|, the lattice CFL bound."""
    # the limit itself passes, and a NaN level fails
    if k != 0 and not dt <= lattice.ds / abs(k):
        raise ValueError("time step %.3g exceeds the CFL bound ds/|k| = %.3g"
                         % (dt, lattice.ds / abs(k)))


def field_flow(space, obs, p0, fiber, cfg, k):
    """Restricted flow of a lattice field; enforces the lattice CFL bound."""
    check_cfl(space.algebra.lattice, cfg.dt, k)
    return flow_fiber(space, obs, p0, fiber, cfg)


def _smooth_coeffs(base, rng, modes=2, scale=0.4, batch=None):
    """Random (modes + 1, 2, d) coefficients of ``sampled_loop``; ``batch``
    = K stacks K sets, drawn as K single calls draw."""
    lead = () if batch is None else (batch,)
    return scale * rng.standard_normal(lead + (modes + 1, 2, base.dim))


def convergence_study(base, k, sizes=(8, 16, 32, 64), rng=None, samples=4):
    """Second-order convergence of the lattice cocycle identities.

    For fixed band-limited loops sampled on finer and finer lattices,
    measures the residual of the algebra cocycle identity, the group
    1-cocycle property, and the adjoint compatibility identity; returns
    the residuals and their log-log slopes against the spacing.

    Sampling is identity-specific so the coarsest lattice already sits in
    the asymptotic regime: the algebra identity residual cancels
    identically on loops with a single Fourier mode, so it is probed with
    two-mode loops, while the group-level identities (which pass through
    the exponential and so generate higher harmonics) are probed with
    small single-mode loops to keep that spillover resolved at N = 8.
    """
    rng = rng or np.random.default_rng(0)
    # sample i is (x, y, z) and (xg, yg), one stack over the samples
    alg_sets = _smooth_coeffs(base, rng, modes=2, scale=0.4,
                              batch=3 * samples).reshape(samples, 3, 3, 2, -1)
    grp_sets = _smooth_coeffs(base, rng, modes=1, scale=0.25,
                              batch=2 * samples).reshape(samples, 2, 2, 2, -1)
    res = {"jacobi": [], "one_cocycle": [], "compatibility": []}
    spacings = []
    for n in sizes:
        alg = build_loop_double(base, n)
        spacings.append(alg.lattice.ds)
        c2 = loop_two_cocycle(alg, k)
        cg = loop_group_cocycle(alg, k)
        x, y, z = sampled_loop(alg, alg_sets).swapaxes(0, 1)
        res["jacobi"].append(_max_abs(cocycle_identity_residual(c2, x, y, z)))
        xg, yg = sampled_loop(alg, grp_sets).swapaxes(0, 1)
        g, h = grouplib.exp(alg, xg), grouplib.exp(alg, yg)
        # measure the covector residual as an algebra element; raw dual
        # coordinates carry the 1/N pairing normalization and would
        # overstate the convergence order by one
        res["one_cocycle"].append(_max_abs(alg.psi_bar(
            grouplib.one_cocycle_residual(cg, g, h))))
        res["compatibility"].append(_max_abs(
            c2.eval(grouplib.adjoint(g, yg), grouplib.adjoint(g, xg))
            - c2.eval(yg, xg) - _dot(cg.value(g.inv()), alg.bracket(yg, xg))))
    slopes = {key: float(np.polyfit(np.log(spacings), np.log(vals), 1)[0])
              for key, vals in res.items()}
    return {"sizes": list(sizes), "spacings": spacings, "residuals": res,
            "slopes": slopes}
