"""Scenario runner: loads a declarative JSON config, executes one named
experiment end to end, and writes CSV/JSON artifacts plus a run report.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config
error, 3 numerical (or any other) failure during the run. With a fixed
config and seed every CSV artifact is byte-identical between runs.
"""

import argparse
import csv
import json
import os
import platform
import sys
import time

import numpy as np

from . import dynamics, group as grouplib, loop as looplib, sigma
from .algebra import (_below, _manin_bound, _max_abs,
                      cocycle_identity_residual, load_algebra, validate_manin)
from .dynamics import EnergyOperator, IntegratorConfig
from .group import FactorizationError, GroupCocycle
from .phase import Differential, Observable, PhasePoint, PhaseSpace

EXPERIMENTS = ("check", "brackets", "flow", "collective", "legendre",
               "sigma", "loop", "converge")
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def one_of(*words):
    """The test of a word-valued key; its ``words`` are the allowed ones."""
    def valid(v):
        return any(type(v) is type(w) and v == w for w in words)
    valid.words = words
    return " or ".join(map(json.dumps, words)), valid


# what each value must be, and the test for it
COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
# an integer too large for a float is not finite either
REAL = ("a finite number", lambda v: type(v) in (int, float)
        and abs(v) <= sys.float_info.max)
POSITIVE = ("a finite number > 0", lambda v: REAL[1](v) and v > 0)
VECTOR = ("a list of finite numbers",
          lambda v: isinstance(v, list) and all(map(REAL[1], v)))
ROWS = ("a list of rows of finite numbers",
        lambda v: isinstance(v, list) and all(map(VECTOR[1], v)))
ENTRIES = ("a square list of rows of finite numbers or [re, im] pairs",
           lambda v: isinstance(v, list) and all(
               isinstance(row, list) and len(row) == len(v)
               and all(REAL[1](x) or VECTOR[1](x) and len(x) == 2
                       for x in row) for row in v))
POINT = ("a list of finite numbers or an object",
         lambda v: VECTOR[1](v) or isinstance(v, dict))
SECTION = None  # the key's value is checked against SCHEMA[key]
SCHEMA = {
    "config": {
        "schema": one_of(SCHEMA_VERSION), "experiment": one_of(*EXPERIMENTS),
        "algebra": ("a built-in name, a path or a declaration object",
                    lambda v: isinstance(v, (str, dict))),
        "seed": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
        "output_dir": ("a path", lambda v: isinstance(v, str)),
        **dict.fromkeys(("cocycle", "fiber", "energy", "integrator", "loop",
                         "options"), SECTION)},
    "cocycle": {"kind": one_of("zero", "coboundary", "lattice-derivative"),
                "mu0": VECTOR},
    "fiber": {"g_minus": POINT, "eta_minus": POINT},
    "fiber.g_minus": {"matrix": ENTRIES, "constant": VECTOR},
    "fiber.eta_minus": {"constant": VECTOR},
    "energy": {"preset": one_of("isotropic", "skewed"), "matrix": ROWS},
    "integrator": {"dt": POSITIVE, "steps": COUNT, "method": one_of("rkmk4")},
    "loop": {"sites": COUNT, "level": REAL, "samples": COUNT,
             "sizes": ("a list of at least two site counts",
                       lambda v: isinstance(v, list) and len(v) > 1
                       and all(map(COUNT[1], v)))},
    "options": {"points": COUNT, "pairs": COUNT, "energy_tol": POSITIVE,
                "amplitude": POSITIVE,
                "hamiltonian": one_of("quadratic", "zero")},
}


def _section(value, name):
    """value checked against SCHEMA[name], nested sections included: an
    object of known keys whose values pass their tests; exit 2 otherwise."""
    if not isinstance(value, dict):
        raise ConfigError("%s must be an object (got %r)" % (name, value))
    unknown = sorted(set(value) - set(SCHEMA[name]))
    if unknown:
        raise ConfigError("unknown key(s) %s in %s" % (unknown, name))
    for key, v in value.items():
        test = SCHEMA[name][key]
        if test is SECTION:
            _section(v, key)
        elif not test[1](v):
            raise ConfigError("%s.%s must be %s (got %r)"
                              % (name, key, test[0], v))
    return value


def _parse_matrix(rows):
    """A complex matrix from rows of numbers or [re, im] pairs."""
    return np.array([[complex(*v) if isinstance(v, list) else complex(v)
                      for v in row] for row in rows])


class Scenario:
    """Everything an experiment needs, resolved from a validated config."""

    def __init__(self, cfg, experiment, seed, output_dir):
        self.experiment = experiment
        self.output_dir = output_dir
        self.rng = np.random.default_rng(seed)
        self.checks = []
        self.artifacts = []

        try:
            base = load_algebra(cfg["algebra"])
        except (KeyError, ValueError, OSError) as exc:
            raise ConfigError("algebra: %s" % exc)
        if base.basis_matrices is None and (
                experiment != "check" or "fiber" in cfg
                or cfg.get("cocycle", {}).get("kind") == "lattice-derivative"):
            raise ConfigError("algebra: %r has no matrix representation, "
                              "which this run's group layer needs" % base.name)
        loop = cfg.get("loop", {})
        self.base = self.algebra = base
        # the level of the lattice cocycle and of the CFL bound
        self.level = float(loop.get("level", 1.0))
        # the study's keys that the config sets; the study has the defaults
        self.study = {k: loop[k] for k in ("sizes", "samples") if k in loop}
        if "loop" in cfg:
            try:
                for n in loop.get("sizes", ()):
                    looplib.LoopLattice(base, n)
                self.algebra = looplib.build_loop_double(
                    base, loop.get("sites", 8))
            except ValueError as exc:
                raise ConfigError("loop: %s" % exc)
        self.cocycle = self._build_cocycle(cfg.get("cocycle", {}))
        self.space = PhaseSpace(self.algebra, self.cocycle)
        self.e_op = self._build_energy(cfg.get("energy", {}))
        self.fiber = self._build_fiber(cfg.get("fiber"))
        icfg = cfg.get("integrator", {})
        self.integrator = IntegratorConfig(icfg.get("dt", 0.01),
                                           icfg.get("steps", 100))
        if experiment in ("flow", "collective", "sigma", "loop") and (
                self.algebra.lattice is not None):
            # the config fixes the CFL bound of every flow on the loop
            try:
                looplib.check_cfl(self.algebra.lattice, self.integrator.dt,
                                  self.level)
            except ValueError as exc:
                raise ConfigError("integrator: %s (k = loop.level)" % exc)
        self.options = cfg.get("options", {})

    def _build_cocycle(self, spec):
        kind, a = spec.get("kind", "zero"), self.algebra
        # the lattice cocycle's identities hold only to O(ds^2)
        self.exact_cocycle = kind != "lattice-derivative"
        if kind == "coboundary":
            mu0 = np.asarray(spec.get("mu0", ()), dtype=float)
            if mu0.shape != (a.dim,):
                raise ConfigError("cocycle: mu0 must have length %d" % a.dim)
            # the coboundary reads the flat list as (N, d) coordinates
            return GroupCocycle.coboundary(a, mu0)
        if kind == "zero":
            return GroupCocycle.zero(a)
        if a.lattice is None:
            raise ConfigError("cocycle: lattice-derivative needs a loop "
                              "section")
        return looplib.loop_group_cocycle(a, self.level)

    def _build_energy(self, spec):
        try:
            if "matrix" in spec:
                return EnergyOperator(self.algebra,
                                      np.asarray(spec["matrix"], dtype=float))
            return EnergyOperator.preset(self.algebra,
                                         spec.get("preset", "isotropic"))
        except ValueError as exc:
            raise ConfigError("energy: %s" % exc)

    def _fiber_part(self, spec, what):
        """g- as a group point, or eta-, from fiber.<what>."""
        a = self.algebra
        if isinstance(spec, dict):
            _section(spec, "fiber." + what)
            if len(spec) != 1 or "constant" in spec and a.lattice is None:
                raise ConfigError("fiber.%s: expected coordinates or one "
                                  "form, {'constant': ...} on a loop" % what)
            if "matrix" in spec:  # one site's matrix, on every site
                m = _parse_matrix(spec["matrix"])
                if m.shape != a.identity_matrix.shape[1:]:
                    raise ConfigError("fiber.%s.matrix: wrong size" % what)
                real = a.identity_matrix.dtype.kind != "c"
                if real and m.imag.any():
                    raise ConfigError("fiber.%s.matrix: imaginary entries on "
                                      "a real representation" % what)
                m = (m.real if real else m).astype(a.identity_matrix.dtype)
                return grouplib.GroupPoint(a, np.repeat(m[None], a.n_sites, 0))
            v = np.asarray(spec["constant"], dtype=float)
            if v.shape != (a.lattice.base.dim,):
                raise ConfigError("fiber.%s.constant: wrong length" % what)
            # covectors carry the 1/N of the lattice pairing
            scale = a.lattice.n_sites if what == "eta_minus" else 1
            v = looplib.constant_loop(a, v) / scale
        else:
            v = np.asarray(spec, dtype=float)
            if v.shape != (a.dim,):
                raise ConfigError("fiber.%s: expected %d coordinates"
                                  % (what, a.dim))
            v = v.reshape(a.shape)
        return grouplib.exp(a, v) if what == "g_minus" else v

    def _build_fiber(self, spec):
        if spec is None:
            return None
        gm = (self._fiber_part(spec["g_minus"], "g_minus") if "g_minus" in spec
              else grouplib.identity(self.algebra))
        em = (self._fiber_part(spec["eta_minus"], "eta_minus")
              if "eta_minus" in spec else np.zeros(self.algebra.shape))
        try:
            return self.space.fiber(gm, em)
        except ValueError as exc:
            raise ConfigError("fiber: %s" % exc)

    def require_fiber(self):
        if self.fiber is None:
            raise ConfigError("experiment %r needs a fiber section"
                              % self.experiment)
        return self.fiber

    def restricted_fiber(self):
        """The fiber, for experiments that follow the restricted field."""
        fiber = self.require_fiber()
        if not self.space.exchanging:
            raise ConfigError("experiment %r needs a cocycle that exchanges "
                              "the isotropic factors" % self.experiment)
        return fiber

    # --- reporting helpers ------------------------------------------------

    def check(self, name, residual, tolerance):
        """Record the largest absolute entry of ``residual``; NaN fails."""
        residual = _max_abs(residual)
        self.checks.append({"name": name, "residual": residual,
                            "tolerance": float(tolerance),
                            "passed": _below(residual, tolerance)})

    def artifact(self, filename):
        path = os.path.join(self.output_dir, filename)
        self.artifacts.append(path)
        return path

    def hamiltonian(self):
        if self.options.get("hamiltonian", "quadratic") == "zero":
            zero = np.zeros(self.algebra.shape)
            return Observable(lambda p: 0.0,
                              diff=lambda p: Differential(zero, zero),
                              name="zero")
        return dynamics.hamiltonian_quadratic(self.space, self.e_op)


# --- experiments ----------------------------------------------------------

def cmd_check(sc):
    a = sc.algebra
    for name, residual in validate_manin(a)["checks"].items():
        sc.check("algebra/%s" % name, residual, _manin_bound(name))
    c2 = sc.space.c2
    x, y, z = sc.rng.standard_normal((3,) + a.shape)
    sc.check("cocycle/antisymmetry", c2.eval(x, y) + c2.eval(y, x), 1e-10)
    if sc.exact_cocycle:
        sc.check("cocycle/identity", cocycle_identity_residual(c2, x, y, z),
                 1e-10)

    if a.basis_matrices is None:
        return  # inline declarations without matrices: algebra level only

    sc.check("algebra/psi_roundtrip", a.psi_bar(a.psi(x)) - x, 1e-10)

    g = grouplib.random_point(a, sc.rng, batch=sc.options.get("points", 200))
    gp, gm = g.factors()
    members = gp.member("plus") and gm.member("minus")
    sc.check("group/factorization_roundtrip", np.maximum(
        _max_abs(gp.mul(gm).matrix - g.matrix), 0.0 if members else 1.0),
        1e-10)
    sc.check("group/adjoint_pairing_invariance",
             a.pair(grouplib.adjoint(g, x), grouplib.adjoint(g, y))
             - a.pair(x, y), 1e-9)

    if sc.exact_cocycle:
        g, h = (grouplib.random_point(a, sc.rng) for _ in range(2))
        sc.check("cocycle/one_cocycle_property",
                 grouplib.one_cocycle_residual(sc.cocycle, g, h), 1e-10)
    step = 1e-6
    # unit vectors along up to 8 random coordinates, as one stack
    e = np.eye(a.dim)[sc.rng.choice(a.dim, min(a.dim, 8), replace=False)]
    e = e.reshape((-1,) + a.shape)
    fd = (sc.cocycle.value(grouplib.exp(a, e, step))
          - sc.cocycle.value(grouplib.exp(a, e, -step))) / (2 * step)
    sc.check("cocycle/minus_dC_is_hat", -fd - c2.hat(e), 1e-6)

    if sc.fiber is not None:
        p = sc.space.random_fiber_point(sc.fiber, sc.rng, 0.3)
        f, g = (sc.space.momentum_fn(sc.rng.standard_normal(a.shape))
                for _ in range(2))
        pb = sc.space.poisson_c(f, g, p)
        sc.check("phase/poisson_antisymmetry",
                 pb + sc.space.poisson_c(g, f, p), 1e-9 * (1 + abs(pb)))
        df = sc.space.differential(f, p)
        dg = sc.space.differential(g, p)
        vg = sc.space.ham_vf_from_diff(dg, p)
        omega = sc.space.omega_c(p, sc.space.ham_vf_from_diff(df, p), vg)
        sc.check("phase/omega_reproduces_bracket", omega - pb,
                 1e-9 * (1 + abs(pb)))
        # the Dirac matrix against the constraint brackets it stands for
        dmat = sc.space.dirac_matrix(p)
        n = dmat.shape[0] // 2
        cons = sc.space.constraint_differentials(p)
        sc.check("phase/dirac_block_shape", dmat - sc.space.poisson_from_diff(
            cons[:, None], cons, p), 1e-12)
        sc.check("phase/dirac_omega_antisymmetry",
                 dmat[n:, n:] + dmat[n:, n:].T, 1e-12)


def _pair_stack(sc, fiber, lead, pairs):
    """A fiber point at scale 0.3 and ``pairs`` pairs of momentum functions
    per point of ``lead``, drawn as single calls draw: each point's two,
    then its pairs'. The point axes get a pair axis of length 1."""
    x = sc.rng.standard_normal(lead + (2 + 2 * pairs,) + sc.algebra.shape)
    p = sc.space.fiber_chart(fiber, 0.3 * x[..., None, :2, :, :])
    f, g = (sc.space.momentum_fn(x[..., 2 + k::2, :, :]) for k in (0, 1))
    return p, f, g


def cmd_brackets(sc):
    fiber = sc.require_fiber()
    # points along the first axis, their pairs along the second
    p, f, g = _pair_stack(sc, fiber, (sc.options.get("points", 5),),
                          sc.options.get("pairs", 5))
    closed = sc.space.dirac_bracket(f, g, p, fiber)
    oracle = sc.space.dirac_oracle(f, g, p)
    scale = 1.0 + abs(closed)
    d_oracle = abs(closed - oracle) / scale
    cols = [*np.indices(closed.shape), closed, oracle, d_oracle]
    reduced_ok = sc.space.exchanging
    if reduced_ok:
        d_red = abs(closed - sc.space.dirac_bracket_reduced(
            f, g, p, fiber)) / scale
        cols.append(d_red)
    _write_csv(sc.artifact("bracket_residuals.csv"),
               ["point", "pair", "closed", "oracle", "oracle_residual"]
               + (["reduced_residual"] if reduced_ok else []),
               zip(*(c.ravel().tolist() for c in cols)))
    sc.check("brackets/closed_vs_oracle", d_oracle, 1e-7)
    if reduced_ok:
        sc.check("brackets/reduced_vs_full", d_red, 1e-7)


def cmd_flow(sc):
    h = sc.hamiltonian()
    if sc.fiber is not None:
        fiber = sc.restricted_fiber()
        traj = dynamics.flow_fiber(sc.space, h, sc.space.random_fiber_point(
            fiber, sc.rng, 0.3), fiber, sc.integrator)
        for side in ("gminus", "etaminus"):
            sc.check("flow/fiber_%s_frozen" % side,
                     traj.extras["drift_" + side], 1e-9)
    else:
        p0 = PhasePoint(grouplib.random_point(sc.algebra, sc.rng),
                        0.3 * sc.rng.standard_normal(sc.algebra.shape))
        traj = dynamics.flow_full(sc.space, h, p0, sc.integrator)
    _write_trajectory(sc.artifact("trajectory.csv"), traj)
    sc.check("flow/energy_drift", traj.energies - traj.energies[0],
             sc.options.get("energy_tol", 1e-6))


def cmd_collective(sc):
    fiber = sc.restricted_fiber()
    # the fiber action that witnesses collectivity needs an admissible fiber
    try:
        fiber.require_admissible()
    except ValueError as exc:
        raise ConfigError("fiber: %s" % exc)
    p0 = sc.space.random_fiber_point(fiber, sc.rng, 0.3)
    rows = []
    results = []
    for halving in range(2):
        cfg = IntegratorConfig(sc.integrator.dt / 2 ** halving,
                               sc.integrator.steps * 2 ** halving)
        traj = dynamics.flow_fiber(sc.space, dynamics.hamiltonian_quadratic(
            sc.space, sc.e_op), p0, fiber, cfg)
        res = dynamics.collectivity_check(sc.space, sc.e_op, traj, fiber)
        results.append(res)
        rows.append([cfg.dt, res["field"], res["orbit"], res["reconstruction"]])
    _write_csv(sc.artifact("collectivity.csv"),
               ["dt", "field", "orbit", "reconstruction"], rows)
    sc.check("collective/field_residual", results[0]["field"], 1e-8)
    for key in ("orbit", "reconstruction"):
        ratio = results[1][key] / max(results[0][key], 1e-300)
        sc.check("collective/%s_converges" % key, ratio, 0.75)


def cmd_legendre(sc):
    fiber = sc.restricted_fiber()
    p = sc.space.random_fiber_point(fiber, sc.rng, 0.3,
                                    batch=sc.options.get("points", 10))
    gdot = dynamics.legendre_map(sc.space, sc.e_op, p, fiber)
    q = dynamics.legendre_inverse(sc.space, sc.e_op, p.g_plus(), gdot, fiber)
    r_round = np.maximum(np.abs(q.eta - p.eta).max((-2, -1)),
                         np.abs(q.g.matrix - p.g.matrix).max((-3, -2, -1)))
    vals = [sigma.lagrangian_N(sc.space, sc.e_op, p.g_plus(), gdot, fiber,
                               route)
            for route in ("legendre", "blocks", "r-form")]
    r_routes = np.maximum(abs(vals[0] - vals[1]), abs(vals[1] - vals[2]))
    _write_csv(sc.artifact("legendre.csv"),
               ["point", "roundtrip", "route_spread", "L_legendre",
                "L_blocks", "L_rform"],
               [[i, *row] for i, row in enumerate(zip(r_round, r_routes,
                                                      *vals))])
    sc.check("legendre/roundtrip", r_round, 1e-9)
    sc.check("legendre/lagrangian_routes", r_routes, 1e-9)


def cmd_sigma(sc):
    fiber = sc.restricted_fiber()
    a = sc.algebra
    gp = grouplib.exp(a, a.project(0.5 * sc.rng.standard_normal(
        (sc.options.get("points", 100),) + a.shape), "plus"))
    sc.check("sigma/operator_identity", np.maximum(*(
        sigma.operator_identity_check(sc.space, sc.e_op, gp, sign)
        for sign in (1, -1))), 1e-9)
    gp = grouplib.exp(a, a.project(0.5 * sc.rng.standard_normal(a.shape),
                                   "plus"))
    pi_r = sigma.bivector_pi(a, gp)
    xm = a.project(sc.rng.standard_normal(a.shape), "minus")
    ym = a.project(sc.rng.standard_normal(a.shape), "minus")
    sc.check("sigma/bivector_antisymmetry",
             a.pair(np.matvec(pi_r, xm), ym)
             + a.pair(np.matvec(pi_r, ym), xm), 1e-10)
    p = sc.space.random_fiber_point(fiber, sc.rng, 0.3)
    sc.check("sigma/theta_derivative",
             sigma.dtheta_check(sc.space, fiber, p, sc.rng), 1e-6)
    el = dynamics.flow_fiber(
        sc.space, dynamics.hamiltonian_quadratic(sc.space, sc.e_op),
        sc.space.random_fiber_point(fiber, sc.rng, 0.3), fiber,
        sc.integrator)
    sc.check("sigma/el_residual",
             sigma.el_residual(sc.space, sc.e_op, el, fiber), 1e-2)


def cmd_loop(sc):
    if sc.algebra.lattice is None:
        raise ConfigError("experiment 'loop' needs a loop section")
    fiber = sc.restricted_fiber()
    a = sc.algebra
    p0 = sc.space.random_fiber_point(fiber, sc.rng,
                                     sc.options.get("amplitude", 0.2))
    traj = dynamics.flow_fiber(sc.space, sc.hamiltonian(), p0, fiber,
                               sc.integrator)
    _write_trajectory(sc.artifact("trajectory.csv"), traj)
    sc.check("loop/energy_drift", traj.energies - traj.energies[0],
             sc.options.get("energy_tol", 1e-4))
    sc.check("loop/fiber_frozen", [traj.extras["drift_gminus"],
                                   traj.extras["drift_etaminus"]], 1e-9)
    p, f, g = _pair_stack(sc, fiber, (), sc.options.get("pairs", 4))
    full = sc.space.dirac_bracket(f, g, p, fiber)
    red = sc.space.dirac_bracket_reduced(f, g, p, fiber)
    sc.check("loop/remark_reduced_vs_full", (full - red) / (1 + abs(full)),
             1e-12)
    x, y = sc.rng.standard_normal((2,) + a.shape)
    sc.check("loop/cocycle_antisymmetry",
             sc.space.c2.eval(x, y) + sc.space.c2.eval(y, x), 1e-12)
    const = grouplib.exp(a, looplib.constant_loop(
        a, sc.rng.standard_normal(a.lattice.base.dim)))
    sc.check("loop/constant_loop_in_kernel", sc.cocycle.value(const), 1e-12)


def cmd_converge(sc):
    out = looplib.convergence_study(sc.base, sc.level, rng=sc.rng, **sc.study)
    keys = ("jacobi", "one_cocycle", "compatibility")
    rows = [[n, out["spacings"][i]] + [out["residuals"][k][i] for k in keys]
            for i, n in enumerate(out["sizes"])]
    _write_csv(sc.artifact("residuals.csv"), ["sites", "spacing", *keys], rows)
    path = sc.artifact("slopes.json")
    with open(path, "w") as fh:
        json.dump(out["slopes"], fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key, slope in out["slopes"].items():
        # window check: residual is the distance from the window center
        sc.check("converge/%s_slope_in_window" % key, abs(slope - 2.0), 0.3)


COMMANDS = {name: globals()["cmd_" + name] for name in EXPERIMENTS}


def _write_trajectory(path, traj):
    """t, g (its first site), eta (flat), energy and the extras, a row per
    time of the trajectory's point stack."""
    t, keys = len(traj.times), sorted(traj.extras)
    g, eta = traj.points.g.matrix[:, 0], traj.points.eta.reshape(t, -1)
    ij = ["%d_%d" % ij for ij in np.ndindex(g.shape[1:])]
    _write_csv(path, ["t"] + ["g_re_" + c for c in ij]
               + ["g_im_" + c for c in ij]
               + ["eta_%d" % i for i in range(eta.shape[1])]
               + ["energy"] + keys, np.column_stack(
                   [traj.times, g.real.reshape(t, -1), g.imag.reshape(t, -1),
                    eta, traj.energies] + [traj.extras[c] for c in keys]))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([x if isinstance(x, (int, str)) else repr(float(x))
                        for x in row])


def load_config(path, experiment):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    if _section(cfg, "config").get("schema") != SCHEMA_VERSION:
        raise ConfigError("config schema must be %d" % SCHEMA_VERSION)
    if cfg.get("experiment", experiment) != experiment:
        raise ConfigError("config declares experiment %r but %r was requested"
                          % (cfg["experiment"], experiment))
    return cfg


def run(experiment, config_path, output_dir=None, seed=None, quiet=False):
    start = time.time()
    cfg = load_config(config_path, experiment)
    out_dir = output_dir or cfg.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    if seed is not None:
        cfg = _section(dict(cfg, seed=seed), "config")
    use_seed = cfg.get("seed", 0)
    # a numerical failure ends in one line; the non-finite gates catch it
    with np.errstate(all="ignore"):
        sc = Scenario(cfg, experiment, use_seed, out_dir)
        COMMANDS[experiment](sc)
    uname = platform.uname()
    report = {
        "schema": SCHEMA_VERSION, "experiment": experiment, "seed": use_seed,
        "checks": sc.checks, "passed": all(c["passed"] for c in sc.checks),
        "artifacts": [os.path.basename(p) for p in sc.artifacts],
        # not platform.platform(): its processor field runs ``uname -p``
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "platform": "%s-%s-%s" % (uname.system, uname.release,
                                                  uname.machine)},
        "wall_time_s": round(time.time() - start, 3),
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if not quiet:
        for c in sc.checks:
            print("%-45s %s  residual %.3e  tol %.1e"
                  % (c["name"], "PASS" if c["passed"] else "FAIL",
                     c["residual"], c["tolerance"]))
        print("report: %s" % path)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="liedouble",
        description="Constrained dynamics on double Lie groups: run one "
                    "experiment from a JSON scenario config.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument("--output", default=None, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        report = run(args.experiment, args.config, args.output, args.seed,
                     args.quiet)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (FactorizationError, np.linalg.LinAlgError, FloatingPointError,
            ValueError, RuntimeError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # still one line and exit 3, never a traceback
        print("run failed: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
