"""Periodic-lattice loop doubles with the central-extension cocycles.

A loop over a base double h gives the algebra of maps S^1 -> h, discretized
on N equispaced sites with periodic central differences for the derivative.
The level-k two-cocycle c_k(X, Y) = (k/N) sum_j (X_j, (d_s Y)_j)_h and its
group counterpart C_k(l) = k psi((d_s l) l^{-1}) are exact antisymmetric
structures on the lattice, while identities relying on the Leibniz rule for
d_s (cocycle identity, the 1-cocycle property of C_k) hold up to O(ds^2)
and converge at second order under refinement.
"""

import numpy as np

from . import group as grouplib
from .algebra import (BasisAlgebra, TwoCocycle, _block_diag,
                      cocycle_identity_residual)

__all__ = [
    "LoopLattice",
    "build_loop_double",
    "d_s",
    "loop_two_cocycle",
    "loop_group_cocycle",
    "constant_loop",
    "sampled_loop",
    "field_flow",
    "convergence_study",
]

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


def d_s(lattice, x):
    """Periodic central difference of site-major coordinates."""
    blocks = np.asarray(x).reshape(lattice.n_sites, -1)
    out = (np.roll(blocks, -1, axis=0) - np.roll(blocks, 1, axis=0)) \
        / (2.0 * lattice.ds)
    return out.reshape(np.shape(x))


def _difference_matrix(lattice, dim_site):
    eye = np.eye(lattice.n_sites)
    dn = np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)
    return np.kron(dn / (2.0 * lattice.ds), np.eye(dim_site))


def build_loop_double(base, n_sites):
    """The lattice loop algebra of a base double, site-major coordinates."""
    return BasisAlgebra(
        "loop-%s-N%d" % (base.name, int(n_sites)), base.labels, base.pairing,
        base.plus_indices, base.minus_indices, base.structure_constants,
        basis_matrices=base.basis_matrices,
        lattice=LoopLattice(base, n_sites),
        group_memberships=base.group_memberships, factorizer=base.factorizer)


def loop_two_cocycle(loop_algebra, k):
    """c_k(X, Y) = (k / N) sum_j (X_j, (d_s Y)_j)_h, with hat -k psi(d_s X)."""
    lattice = loop_algebra.lattice
    dmat = _difference_matrix(lattice, lattice.base.dim)
    matrix = -k * loop_algebra.pairing @ dmat
    return TwoCocycle(loop_algebra, TwoCocycle.LATTICE, matrix)


def loop_group_cocycle(loop_algebra, k):
    """C_k(l) = k psi((d_s l) l^{-1}) evaluated site-wise."""
    lattice = loop_algebra.lattice

    def value_fn(g):
        m = np.asarray(g.matrix)
        dm = (np.roll(m, -1, axis=0) - np.roll(m, 1, axis=0)) \
            / (2.0 * lattice.ds)
        coords = loop_algebra.mat_to_vec(dm @ np.linalg.inv(m))
        return k * loop_algebra.psi(coords)

    def differential_inv_fn(g):
        # Exact d/dt C_k((g exp(tX))^{-1}) of the lattice expression.
        # With h = g^{-1} site-wise, the perturbed field is exp(-tX) h and
        # d/dt [(d_s h) h^{-1}] = -d_s(X h) h^{-1} + (d_s h) h^{-1} X,
        # where d_s is the same central difference as in value_fn. A basis
        # direction supported at site j contributes at sites j-1, j, j+1.
        base = lattice.base
        n, ds = lattice.n_sites, lattice.ds
        h = np.linalg.inv(np.asarray(g.matrix))
        hinv = np.asarray(g.matrix)
        dh = (np.roll(h, -1, axis=0) - np.roll(h, 1, axis=0)) / (2.0 * ds)
        q = dh @ hinv
        mats = base.basis_matrices
        # (n, d, m, m) stacks map to (n, d, d) coordinate blocks
        bh = np.einsum("bac,jcd->jbad", mats, h)
        dn = base.mat_to_vec(-bh @ hinv[(np.arange(n) - 1) % n, None]) \
            / (2.0 * ds)
        up = base.mat_to_vec(bh @ hinv[(np.arange(n) + 1) % n, None]) \
            / (2.0 * ds)
        mid = base.mat_to_vec(np.einsum("jab,ibc->jiac", q, mats))
        coords = (_block_diag(dn.transpose(0, 2, 1), -1)
                  + _block_diag(up.transpose(0, 2, 1), 1)
                  + _block_diag(mid.transpose(0, 2, 1)))
        return k * loop_algebra.pairing @ coords

    return grouplib.GroupCocycle(
        loop_algebra, TwoCocycle.LATTICE, loop_two_cocycle(loop_algebra, k),
        value_fn=value_fn, differential_inv_fn=differential_inv_fn)


def constant_loop(loop_algebra, base_vector):
    """Embed a base algebra vector as a spatially constant loop."""
    n = loop_algebra.lattice.n_sites
    return np.tile(np.asarray(base_vector, dtype=float), n)


def sampled_loop(loop_algebra, coeffs):
    """Sample a band-limited loop X(s) = sum_m a_m cos(ms) + b_m sin(ms).

    coeffs is a sequence of (a_m, b_m) pairs of base-algebra vectors for
    m = 0, 1, ...; the same coefficients define the same smooth loop on
    every lattice size, which is what refinement studies need.
    """
    lattice = loop_algebra.lattice
    d = lattice.base.dim
    out = np.zeros((lattice.n_sites, d))
    for m, (a_m, b_m) in enumerate(coeffs):
        out += (np.cos(m * lattice.s)[:, None] * np.asarray(a_m)
                + np.sin(m * lattice.s)[:, None] * np.asarray(b_m))
    return out.reshape(-1)


def field_flow(space, obs, p0, fiber, cfg, k):
    """Restricted flow of a lattice field; enforces the lattice CFL bound."""
    from .dynamics import flow_fiber

    ds = space.algebra.lattice.ds
    if abs(k) > 0 and cfg.dt > ds / abs(k):
        raise ValueError("time step %.3g exceeds the CFL bound %.3g"
                         % (cfg.dt, ds / abs(k)))
    return flow_fiber(space, obs, p0, fiber, cfg)


def _smooth_coeffs(base, rng, modes=2, scale=0.4):
    return [(scale * rng.standard_normal(base.dim),
             scale * rng.standard_normal(base.dim))
            for _ in range(modes + 1)]


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
    alg_sets = [_smooth_coeffs(base, rng, modes=2, scale=0.4)
                for _ in range(3 * samples)]
    grp_sets = [_smooth_coeffs(base, rng, modes=1, scale=0.25)
                for _ in range(2 * samples)]
    res = {"jacobi": [], "one_cocycle": [], "compatibility": []}
    spacings = []
    for n in sizes:
        alg = build_loop_double(base, n)
        spacings.append(alg.lattice.ds)
        c2 = loop_two_cocycle(alg, k)
        cg = loop_group_cocycle(alg, k)
        worst = {key: 0.0 for key in res}
        for i in range(samples):
            cx, cy, cz = alg_sets[3 * i:3 * i + 3]
            x = sampled_loop(alg, cx)
            y = sampled_loop(alg, cy)
            z = sampled_loop(alg, cz)
            worst["jacobi"] = max(
                worst["jacobi"], abs(cocycle_identity_residual(c2, x, y, z)))
            cg_x, cg_y = grp_sets[2 * i:2 * i + 2]
            xg = sampled_loop(alg, cg_x)
            yg = sampled_loop(alg, cg_y)
            g = grouplib.exp(alg, xg)
            h = grouplib.exp(alg, yg)
            lhs = cg.value(g.mul(h))
            rhs = grouplib.coadjoint_star(g.inv(), cg.value(h)) + cg.value(g)
            # measure the covector residual as an algebra element; raw dual
            # coordinates carry the 1/N pairing normalization and would
            # overstate the convergence order by one
            worst["one_cocycle"] = max(
                worst["one_cocycle"],
                float(np.abs(alg.psi_bar(lhs - rhs)).max()))
            comp = (c2.eval(grouplib.adjoint(g, yg), grouplib.adjoint(g, xg))
                    - c2.eval(yg, xg)
                    - cg.value(g.inv()) @ alg.bracket(yg, xg))
            worst["compatibility"] = max(worst["compatibility"], abs(comp))
        for key in res:
            res[key].append(worst[key])
    out = {"sizes": list(sizes), "spacings": spacings, "residuals": res,
           "slopes": {}}
    logds = np.log(spacings)
    for key, vals in res.items():
        out["slopes"][key] = float(np.polyfit(logds, np.log(vals), 1)[0])
    return out
