"""Evaluation backends for the solver.

A backend runs only a solve's passes.  Everything around them (the
endpoint checks, the pass budget, the probe of f at the root when every
pass ran and the :class:`~multisection.solver.SolveResult`) comes from
one driver, :func:`multisection.solver._solve`, whichever backend ran.
Two engines supply the passes:

* ``"numpy"`` — :func:`multisection.solver._multisect`, which evaluates
  each iteration's nodes with one vectorized call.
* ``"numba"`` — a compiled kernel built per target function by closing a
  nopython loop over the jitted callable.  It keeps the numpy passes'
  node arithmetic and departure rule: every chosen left end keeps the
  sign ``s`` of f at the bracket's left end, so the chosen subinterval
  ends at the first node with ``s*f(x) <= 0``, else at hi.  It fills the
  arrays of values and chosen ends the solver builds every backend's
  trace from (no backend keeps its nodes), so results agree with the
  numpy path apart from last-ulp libm differences in f itself.

Selection order: an explicit ``backend=`` argument, then the
MULTISECTION_BACKEND environment variable, then auto-detection (numba if
importable).  numba is an optional dependency; importing this module does
not import it — the probe happens on first use and is remembered.

A function that numba cannot compile (closures over Python objects,
calls into arbitrary extensions, ...) falls back to the numpy path with
a logged warning; the failure is cached so the compile is attempted,
and the fallback logged, only once per function.  Without numba every
request falls back uncached, logged once per process.
"""

from __future__ import annotations

import functools
import logging
import os
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .solver import Problem, SolveOptions, SolveResult, Termination, _solve

logger = logging.getLogger(__name__)

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "MULTISECTION_BACKEND"

VALID_BACKENDS = ("numba", "numpy")

# Kernel exit codes: every pass of the budget ran, an exact zero, the
# residual stop (these three index the passes' stops), a NaN node.
_BUDGET, _EXACT, _RESIDUAL, _NAN = range(4)
_STOPS = (None, Termination.EXACT_ZERO, Termination.RESIDUAL_REACHED)

# f -> (jitted f, its passes), or None when numba cannot jit f; a
# compile that fails on the first call replaces the pair by None.
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
    """The numba backend's passes: a function with
    :func:`~multisection.solver._multisect`'s signature and return that
    allocates one row of values per budgeted pass and runs a nopython
    loop closed over the jitted function.  The endpoints, the budget, the
    probe and the result come from :func:`~multisection.solver._solve`.

    The loop calls f only at nodes, and keeps their values but not the
    nodes, which the solver's steps derive from each pass's bracket.  In
    each pass one loop over the nodes evaluates each, exits on NaN and
    keeps in locals the first node that departs from ``s``, the sign of
    f at the bracket's left end (``s*f(x) <= 0``), and the node before
    it; with none, the subinterval ends at hi, which always departs: the
    bracket's ends have opposite signs, and each chosen hi departs.  The
    point before the departing one keeps ``s``, so only the departing node
    can be an exact zero, which ends the solve (``f_lo`` is never 0: an
    endpoint zero ends the solve before any pass).  The residual stop's
    root is its node rebuilt by the same arithmetic.  The closure over a
    dispatcher rules out numba's on-disk cache, so each (function,
    process) pair pays one compile; the pair is memoized in ``_compiled``.
    """

    @nb.njit(cache=False)
    def kernel(lo, hi, f_lo, sections, rtol, limit, nodes_f, chosen_lo, chosen_hi):
        s = -1.0 if f_lo < 0.0 else 1.0
        for it in range(limit):
            span = hi - lo
            k = sections - 1  # hi, unless a node departs first
            left, right = lo, hi  # the chosen pair's ends
            for j in range(1, sections):
                x = lo + (j * span) / sections
                fx = fj(x)
                if fx != fx:
                    return _NAN, x, fx, it
                nodes_f[it, j - 1] = fx
                if k == sections - 1:
                    if s * fx <= 0.0:
                        k, right = j - 1, x
                    else:
                        left = x
            chosen_lo[it] = left
            chosen_hi[it] = right
            if k < sections - 1 and nodes_f[it, k] == 0.0:
                return _EXACT, right, 0.0, it + 1
            if rtol > 0.0:
                best = 0
                for j in range(1, sections - 1):
                    if abs(nodes_f[it, j]) < abs(nodes_f[it, best]):
                        best = j
                if abs(nodes_f[it, best]) <= rtol:
                    x = lo + ((best + 1) * span) / sections
                    return _RESIDUAL, x, nodes_f[it, best], it + 1
            lo, hi = left, right
        return _BUDGET, lo + (hi - lo) / 2.0, 0.0, limit

    def passes(f, sections, f_lo, lo, hi, limit, rtol):
        # a row per pass the budget allows, and no more; no nodes are kept
        steps = np.empty((limit, sections - 1)), np.empty(limit), np.empty(limit)
        term, root, residual, iterations = kernel(lo, hi, f_lo, sections, rtol, limit, *steps)
        if term == _NAN:
            raise EvaluationError(f"f({root}) is NaN")
        values, chosen_lo, chosen_hi = (rows[:iterations] for rows in steps)
        return (_STOPS[term], float(root), float(residual),
                (values, chosen_lo.tolist(), chosen_hi.tolist()))

    return passes


def _compile(problem: Problem):
    """The jitted f and its passes, or None; see ``_compiled``."""
    f = problem.f
    if f not in _compiled:
        nb = _get_numba()
        try:
            fj = nb.njit(cache=True)(f)
        except Exception:
            _fall_back(problem)
        else:
            _compiled[f] = (fj, _make_kernel(nb, fj))
    return _compiled[f]


def _fall_back(problem: Problem) -> None:
    """Cache that ``problem.f`` runs on the numpy path, and say so: once
    per f, since every later solve of it reads the cache."""
    _compiled[problem.f] = None
    logger.warning("numba backend unavailable for problem %r; using numpy path",
                   problem.id)


@functools.cache
def _numba_missing() -> None:
    """Say, once per process, that numba was asked for and is missing."""
    logger.warning("numba backend requested but numba is not importable; "
                   "using numpy path")


def solve_numba(problem: Problem, options: SolveOptions) -> Optional[SolveResult]:
    """Solve on the numba backend; None, logged as the module describes,
    when numba is missing or f cannot be compiled.

    The endpoints and the probe are evaluated with the jitted function
    too, so the whole run sees one evaluation engine.  numba compiles on
    a function's first call, so a failed compile can surface at the first
    endpoint or at the kernel's first call; either falls back."""
    if _get_numba() is None:
        _numba_missing()
        return None
    compiled = _compile(problem)
    if compiled is None:
        return None
    fj, passes = compiled
    try:
        return _solve(fj, passes, problem.bracket, options)
    except _get_numba().core.errors.NumbaError:
        logger.warning("numba compile failed for %r; falling back", problem.id)
        _fall_back(problem)
        return None
