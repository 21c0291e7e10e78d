"""Span tracing of liedouble from outside the library.

A Tracer wraps chosen functions and methods of the liedouble modules, plus
the numpy/scipy kernels they call, by rebinding them on their modules and
classes; nothing under src/ is edited. Every wrapped call records a span
``[name, start, end, parent, payload]`` in memory; the spans are written to
a JSON file after each unit of work (set-up, a flow segment, a CLI
scenario) and summarised by ``summarise``.

The payload is a number known before the call: 1/0 for a cache miss of
``GroupPoint.ad_matrix``/``factors`` (a "build"), the computed flop count of
a ``numpy.linalg.solve``, and the number of matrices in a ``scipy.linalg.expm``
stack. It is 0 for every other span.

This module imports neither numpy nor liedouble at import time, so the
orchestrator can use ``summarise`` without loading the program.
"""

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager

KERNEL_PREFIXES = ("numpy.", "scipy.")


def _build_probe(attr):
    def probe(self, *args, **kwargs):
        return 1 if getattr(self, attr) is None else 0
    return probe


def _solve_flops(a, b, *args, **kwargs):
    # LU factorization 2n^3/3 plus two triangular solves 2n^2 per column,
    # for every matrix of a stacked (..., n, n) system
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    n = shape[-1]
    batch = math.prod(shape[:-2])
    bshape = getattr(b, "shape", ())
    nrhs = 1 if len(bshape) == len(shape) - 1 else bshape[-1]
    return int(batch * (2 * n ** 3 // 3 + 2 * n * n * nrhs))


def _expm_matrices(a, *args, **kwargs):
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


# (module, attribute path, span name, payload function or None)
LIBRARY_TARGETS = [
    ("liedouble.algebra", "BasisAlgebra.bracket", "algebra.bracket", None),
    ("liedouble.algebra", "BasisAlgebra.ad", "algebra.ad", None),
    ("liedouble.algebra", "validate_manin", "algebra.validate_manin", None),
    ("liedouble.algebra", "is_character", "algebra.is_character", None),
    ("liedouble.group", "exp", "group.exp", None),
    ("liedouble.group", "GroupPoint.ad_matrix", "group.ad_matrix",
     _build_probe("_ad")),
    ("liedouble.group", "GroupPoint.factors", "group.factors",
     _build_probe("_factors")),
    ("liedouble.group", "GroupCocycle.value", "group.cocycle_value", None),
    ("liedouble.group", "GroupCocycle.differential_inv",
     "group.cocycle_differential_inv", None),
    ("liedouble.phase", "PhaseSpace.dressed_projector",
     "phase.dressed_projector", None),
    ("liedouble.phase", "PhaseSpace.differential", "phase.differential", None),
    ("liedouble.phase", "PhaseSpace.fiber", "phase.fiber", None),
    ("liedouble.phase", "PhaseSpace.dirac_bracket", "phase.dirac_bracket",
     None),
    ("liedouble.phase", "PhaseSpace.dirac_bracket_reduced",
     "phase.dirac_bracket", None),
    ("liedouble.phase", "PhaseSpace.dirac_oracle", "phase.dirac_oracle", None),
    ("liedouble.dynamics", "dirac_field", "dynamics.dirac_field", None),
    ("liedouble.dynamics", "EnergyOperator.at", "dynamics.energy_at", None),
    ("liedouble.dynamics", "flow_fiber", "dynamics.flow", None),
    ("liedouble.dynamics", "flow_full", "dynamics.flow", None),
    ("liedouble.loop", "build_loop_double", "loop.build_loop_double", None),
    ("liedouble.loop", "convergence_study", "loop.convergence_study", None),
    ("liedouble.cli", "run", "cli.run", None),
]

KERNEL_TARGETS = [
    ("numpy.linalg", "solve", "numpy.linalg.solve", _solve_flops),
    ("numpy.linalg", "inv", "numpy.linalg.inv", None),
    ("numpy.linalg", "qr", "numpy.linalg.qr", None),
    ("scipy.linalg", "expm", "scipy.linalg.expm", _expm_matrices),
]


class Tracer:
    """Records spans of wrapped calls; install() and uninstall() toggle it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.active = False

    def wrap(self, name, fn, payload=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # wrappers that outlive uninstall(), such as a traced
            # Hamiltonian, fall through to the plain call
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   payload(*args, **kwargs) if payload else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, original, wrapped, owner, attr):
        self._patch(owner, attr, wrapped)
        # names bound by "from .x import f" hold the original object
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("liedouble") and mod is not owner:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapped)

    def install(self):
        """Wrap the library targets and kernels of already imported modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.active = True
        for modname, path, name, payload in LIBRARY_TARGETS + KERNEL_TARGETS:
            if modname.startswith("liedouble") and modname not in sys.modules:
                continue
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._replace(original, self.wrap(name, original, payload),
                          owner, attr)
        sigma = sys.modules.get("liedouble.sigma")
        if sigma is not None:
            for fname in sigma.__all__:
                original = getattr(sigma, fname)
                self._replace(original,
                              self.wrap("sigma." + fname, original),
                              sigma, fname)
        dynamics = sys.modules.get("liedouble.dynamics")
        if dynamics is not None:
            self._replace(dynamics.hamiltonian_quadratic,
                          self._traced_hamiltonian(
                              dynamics.hamiltonian_quadratic),
                          dynamics, "hamiltonian_quadratic")

    def _traced_hamiltonian(self, factory):
        # the Hamiltonian is a closure inside an Observable, so its
        # evaluations are traced on the Observable the factory returns
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            from liedouble.phase import Observable
            obs = factory(*args, **kwargs)
            return Observable(
                self.wrap("dynamics.hamiltonian", obs.value),
                diff=(obs.analytic_differential
                      if obs.has_analytic_differential else None),
                name=obs.name)
        return traced_factory

    def uninstall(self):
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def flush(self, path, **extra):
        """Write the recorded spans to path and forget them.

        Called between units of work, never inside one, so a long traced
        run holds the spans of one unit at a time.
        """
        if self._stack:
            raise RuntimeError("cannot flush inside an open span")
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh)
        del self.spans[:]


# --- analysis (stdlib only) -------------------------------------------------

def summarise(spans):
    """Per top-level span: ``(per_name, kernels)`` summaries of its subtree.

    ``per_name`` maps a span name to its calls, payload sum, self seconds
    and total seconds; self time is a span's duration minus the durations
    of its direct children. ``kernels`` maps (kernel, caller) to calls and
    seconds, where the caller is the nearest enclosing non-kernel span.
    """
    root = [0] * len(spans)
    child = [0.0] * len(spans)
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent, payload) in enumerate(spans):
        per, kernels = out.setdefault(root[i], ({}, {}))
        rec = per.setdefault(name, dict(calls=0, payload=0, self_s=0.0,
                                        total_s=0.0))
        rec["calls"] += 1
        rec["payload"] += payload
        rec["self_s"] += (t1 - t0) - child[i]
        rec["total_s"] += t1 - t0
        if name.startswith(KERNEL_PREFIXES):
            caller = parent
            while caller >= 0 and spans[caller][0].startswith(
                    KERNEL_PREFIXES):
                caller = spans[caller][3]
            key = (name, spans[caller][0] if caller >= 0 else "(none)")
            k = kernels.setdefault(key, dict(calls=0, self_s=0.0))
            k["calls"] += 1
            k["self_s"] += t1 - t0
    return out


def merge(parts):
    """Sum a list of ``(per_name, kernels)`` summaries into one."""
    per, kernels = {}, {}
    for p, k in parts:
        for target, source in ((per, p), (kernels, k)):
            for key, rec in source.items():
                acc = target.setdefault(key, dict.fromkeys(rec, 0))
                for field, val in rec.items():
                    acc[field] += val
    return per, kernels
