"""Evaluation backends for the solver.

Two engines produce :class:`~multisection.solver.SolveResult` objects:

* ``"numpy"`` — the reference loop in :mod:`multisection.solver`, which
  evaluates each iteration's nodes with one vectorized call.
* ``"numba"`` — a compiled kernel built per target function by closing a
  nopython loop over the jitted callable.  It keeps the reference loop's
  node arithmetic, pass budget and departure rule: every
  chosen left end keeps the sign ``s`` of f at the bracket's left end,
  so the chosen subinterval ends at the first node with ``s*f(x) <= 0``,
  else at hi.  It fills the arrays the solver builds every backend's
  trace from, so results agree with the numpy path apart from last-ulp
  libm differences in f itself.

Selection order: an explicit ``backend=`` argument, then the
MULTISECTION_BACKEND environment variable, then auto-detection (numba if
importable).  numba is an optional dependency; importing this module does
not import it — the probe happens on first use and is remembered.

A function that numba cannot compile (closures over Python objects,
calls into arbitrary extensions, ...) falls back to the numpy path with
a logged warning; the failure is cached so the compile is attempted
only once.
"""

from __future__ import annotations

import functools
import logging
import os
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .solver import (
    Problem,
    SolveOptions,
    SolveResult,
    Steps,
    Termination,
    _budget,
    _validate_endpoints,
)

logger = logging.getLogger(__name__)

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "MULTISECTION_BACKEND"

VALID_BACKENDS = ("numba", "numpy")

# Kernel exit codes: every pass of the budget ran, an exact zero, the
# residual stop (these three index the solve's terminations, the first
# being the budget's own stop), a NaN node.
_BUDGET, _EXACT, _RESIDUAL, _NAN = range(4)

# f -> (jitted f, its kernel), or None when numba is missing or cannot
# jit f; a compile that fails on the first call replaces the pair by None.
_compiled: dict = {}


@functools.cache
def _get_numba():
    """The numba module, or None when it cannot be imported."""
    try:
        import numba
    except ImportError:
        logger.info("numba not importable; numpy backend only")
        return None
    return numba


def numba_available() -> bool:
    return _get_numba() is not None


def available_backends() -> tuple[str, ...]:
    """Backends usable on this host, fastest first."""
    return ("numba", "numpy") if numba_available() else ("numpy",)


def resolve_backend(explicit: Optional[str] = None) -> str:
    """Apply the selection order: explicit arg, environment, auto.  The
    environment is read on every call."""
    if explicit is None:
        env = os.environ.get(BACKEND_ENV)
        env = env.strip().lower() if env else None
        if not env:
            return "numba" if numba_available() else "numpy"
        if env not in VALID_BACKENDS:
            raise DomainError(
                f"{BACKEND_ENV}={env!r} is not a valid backend; "
                f"choose from {VALID_BACKENDS}"
            )
        return env
    name = explicit.strip().lower()
    if name not in VALID_BACKENDS:
        raise DomainError(
            f"unknown backend {name!r}; choose from {VALID_BACKENDS}"
        )
    return name


def _make_kernel(nb, fj):
    """Build the nopython solve loop closed over the jitted function.

    The loop runs at most ``limit`` passes, the solve's pass budget fixed
    before the call, and tracks no width.  In each pass one loop over the
    nodes evaluates each, exits on NaN and marks the first node that
    departs from ``s``, the sign of f at the bracket's left end
    (``s*f(x) <= 0``); with none, the subinterval ends at hi, which
    always departs: the bracket's ends have opposite signs, and each
    chosen hi departs.
    The point before the departing one keeps ``s``, so only the departing
    point can be an exact zero: ``f_lo`` is never 0 here, because an
    endpoint zero ends the solve before the kernel runs.  The closure over
    a dispatcher rules out numba's on-disk cache, so each (function,
    process) pair pays one compile; the pair is memoized in
    ``_compiled``.
    """

    @nb.njit(cache=False)
    def kernel(lo, hi, f_lo, f_hi, sections, rtol, limit,
               nodes_x, nodes_f, chosen_lo, chosen_hi):
        s = 1.0
        if f_lo < 0.0:
            s = -1.0
        it = 0
        while it < limit:
            span = hi - lo
            k = sections - 1  # hi, unless a node departs first
            for j in range(1, sections):
                x = lo + (j * span) / sections
                fx = fj(x)
                if fx != fx:
                    return _NAN, x, fx, it
                nodes_x[it, j - 1] = x
                nodes_f[it, j - 1] = fx
                if k == sections - 1 and s * fx <= 0.0:
                    k = j - 1
            if k < sections - 1:
                hi = nodes_x[it, k]
                f_hi = nodes_f[it, k]
            if k > 0:
                lo = nodes_x[it, k - 1]
            chosen_lo[it] = lo
            chosen_hi[it] = hi
            it += 1

            if f_hi == 0.0:
                return _EXACT, hi, 0.0, it
            if rtol > 0.0:
                best = 0
                for j in range(1, sections - 1):
                    if abs(nodes_f[it - 1, j]) < abs(nodes_f[it - 1, best]):
                        best = j
                if abs(nodes_f[it - 1, best]) <= rtol:
                    return (_RESIDUAL, nodes_x[it - 1, best],
                            nodes_f[it - 1, best], it)

        root = lo + (hi - lo) / 2.0
        return _BUDGET, root, fj(root), it

    return kernel


def _compile(f):
    """The jitted f and its kernel, or None; see ``_compiled``."""
    if f not in _compiled:
        nb = _get_numba()
        try:
            fj = None if nb is None else nb.njit(cache=True)(f)
        except Exception:
            fj = None
        _compiled[f] = None if fj is None else (fj, _make_kernel(nb, fj))
    return _compiled[f]


def solve_numba(problem: Problem, options: SolveOptions) -> Optional[SolveResult]:
    """Solve on the numba backend; None when f cannot be compiled.

    Endpoint values are computed with the jitted function too, so the
    whole run sees one evaluation engine."""
    compiled = _compile(problem.f)
    if compiled is None:
        return None
    fj, kernel = compiled

    sections = options.sections
    try:
        f_lo, f_hi, done = _validate_endpoints(fj, problem.bracket)
        if done is not None:
            return done

        # one row per pass the budget allows, and no more
        limit, stop = _budget(problem.bracket, options)
        nodes_x = np.empty((limit, sections - 1), dtype=np.float64)
        nodes_f = np.empty((limit, sections - 1), dtype=np.float64)
        chosen_lo = np.empty(limit, dtype=np.float64)
        chosen_hi = np.empty(limit, dtype=np.float64)
        term, root, residual, iterations = kernel(
            problem.bracket.lo, problem.bracket.hi, f_lo, f_hi, sections,
            options.residual_tolerance, limit,
            nodes_x, nodes_f, chosen_lo, chosen_hi,
        )
    except _get_numba().core.errors.NumbaError:
        logger.warning("numba compile failed for %r; falling back", problem.id)
        _compiled[problem.f] = None
        return None

    if term == _NAN:
        raise EvaluationError(f"f({root}) is NaN")

    iterations = int(iterations)
    return SolveResult(
        root=float(root),
        residual=float(residual),
        iterations=iterations,
        function_evaluations=2 + (sections - 1) * iterations,
        termination=(stop, Termination.EXACT_ZERO, Termination.RESIDUAL_REACHED)[term],
        steps=Steps(problem.bracket, nodes_x[:iterations], nodes_f[:iterations],
                    chosen_lo[:iterations], chosen_hi[:iterations]),
    )
