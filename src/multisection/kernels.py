"""Evaluation backends for the solver.

A backend runs only a solve's passes, and returns only how they stopped
and their steps: the values at each pass's nodes and the ends of each
chosen pair.  Everything around them (the endpoint checks, the pass
budget, the root and residual of every stop, the probe of f at the root
when every pass ran and the :class:`~multisection.solver.SolveResult`)
comes from one driver, :func:`multisection.solver._solve`, whichever
backend ran.  Two engines supply the passes:

* ``"numpy"`` — :func:`multisection.solver._multisect`, which evaluates
  each iteration's nodes with one vectorized call, and once f rejects an
  array runs :func:`multisection.solver._node_loop` uncompiled.
* ``"numba"`` — that same scalar node loop, closed over the jitted f and
  compiled once per target function.  It fills the arrays of values and
  chosen ends the solver builds every backend's trace from, so results
  agree with the numpy path apart from last-ulp libm differences in f.

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

from .errors import DomainError
from .solver import Problem, SolveOptions, SolveResult, _node_loop, _run_node_loop, _solve

logger = logging.getLogger(__name__)

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "MULTISECTION_BACKEND"

VALID_BACKENDS = ("numba", "numpy")

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
    """The numba backend's passes, with :func:`~multisection.solver._multisect`'s
    signature and return: :func:`~multisection.solver._node_loop` over the
    jitted f, compiled, filling a row of a 2-D array per budgeted pass.
    The closure over a dispatcher rules out numba's on-disk cache, so each
    (function, process) pair pays one compile, memoized in ``_compiled``.
    """
    kernel = nb.njit(cache=False)(_node_loop(fj))

    def passes(f, sections, f_lo, lo, hi, limit, rtol):
        # a row per pass the budget allows, and no more; no nodes are kept
        steps = np.empty((limit, sections - 1)), np.empty(limit), np.empty(limit)
        stop, (values, chosen_lo, chosen_hi) = _run_node_loop(
            kernel, sections, f_lo, lo, hi, limit, rtol, steps)
        return stop, (values, chosen_lo.tolist(), chosen_hi.tolist())

    return passes


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
    """Solve on the numba backend: compile f and its passes once, cache
    the outcome in ``_compiled``, and return None, logged as the module
    describes, when numba is missing or f cannot be compiled.

    The endpoints and the probe are evaluated with the jitted function
    too, so the whole run sees one evaluation engine.  numba compiles on
    a function's first call, so a failed compile can surface at the first
    endpoint or at the kernel's first call; either falls back."""
    nb = _get_numba()
    if nb is None:
        _numba_missing()
        return None
    f = problem.f
    if f not in _compiled:
        try:
            fj = nb.njit(cache=True)(f)
        except Exception:
            _fall_back(problem)
        else:
            _compiled[f] = (fj, _make_kernel(nb, fj))
    if _compiled[f] is None:
        return None
    try:
        return _solve(*_compiled[f], problem.bracket, options)
    except nb.core.errors.NumbaError:
        logger.warning("numba compile failed for %r; falling back", problem.id)
        _fall_back(problem)
        return None
