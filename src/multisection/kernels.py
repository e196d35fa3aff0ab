"""Evaluation backends for the solver.

Two engines produce :class:`~multisection.solver.SolveResult` objects:

* ``"numpy"`` — the reference loop in :mod:`multisection.solver`, which
  evaluates each iteration's nodes with one vectorized call.
* ``"numba"`` — a compiled kernel built per target function by closing a
  nopython loop over the jitted callable.  The kernel replays the
  reference semantics step for step (same node arithmetic, leftmost
  sign-change scan and tracked-width termination) and fills the arrays
  the solver builds every backend's trace from, so results agree with
  the numpy path apart from last-ulp libm differences in f itself.

Selection order: an explicit ``backend=`` argument, then the
MULTISECTION_BACKEND environment variable, then auto-detection (numba if
importable).  numba is an optional dependency; importing this module does
not import it — the probe happens on first use and is remembered.

A function that numba cannot compile (closures over Python objects,
calls into arbitrary extensions, ...) silently falls back to the numpy
path; the failure is cached so the compile is attempted only once.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError, NoSignChangeError
from .solver import (
    Problem,
    SolveOptions,
    SolveResult,
    Steps,
    Termination,
    _validate_endpoints,
    predicted_max_iterations,
)

logger = logging.getLogger(__name__)

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "MULTISECTION_BACKEND"

VALID_BACKENDS = ("numba", "numpy")

# None = not probed yet; False = unavailable; otherwise the module.
_numba_module = None
_probed = False

_jit_cache: dict = {}
_kernel_cache: dict = {}

# Kernel termination codes (must match _make_kernel's returns).
_TERM_WIDTH = 0
_TERM_EXACT = 1
_TERM_RESIDUAL = 2
_TERM_MAXITER = 3
_TERM_NAN = 4
_TERM_NO_SIGN_CHANGE = 5


def _get_numba():
    global _numba_module, _probed
    if not _probed:
        _probed = True
        try:
            import numba as _nb
            _numba_module = _nb
        except ImportError:
            _numba_module = False
            logger.info("numba not importable; numpy backend only")
    return _numba_module or None


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


def _jitted(f):
    """Jit-compile f for scalar arguments, or None if numba can't."""
    if f in _jit_cache:
        return _jit_cache[f]
    nb = _get_numba()
    if nb is None:
        _jit_cache[f] = None
        return None
    try:
        dispatcher = nb.njit(cache=True)(f)
    except Exception:
        dispatcher = None
    _jit_cache[f] = dispatcher
    return dispatcher


def _make_kernel(nb, fj):
    """Build the nopython solve loop closed over the jitted function.

    The closure over a dispatcher rules out numba's on-disk cache, so
    each (function, process) pair pays one compile; the dispatcher is
    memoized in ``_kernel_cache``.
    """

    @nb.njit(cache=False)
    def kernel(lo, hi, f_lo, f_hi, sections, tol, rtol, cap,
               nodes_x, nodes_f, chosen_lo, chosen_hi):
        w = hi - lo
        it = 0
        while True:
            if w <= tol:
                root = lo + (hi - lo) / 2.0
                return _TERM_WIDTH, root, fj(root), it
            if it >= cap:
                root = lo + (hi - lo) / 2.0
                return _TERM_MAXITER, root, fj(root), it

            span = hi - lo
            for j in range(1, sections):
                x = lo + (j * span) / sections
                fx = fj(x)
                if fx != fx:
                    return _TERM_NAN, x, fx, it
                nodes_x[it, j - 1] = x
                nodes_f[it, j - 1] = fx

            # Leftmost pair of adjacent points whose signs differ; a zero
            # has sign 0 and so differs from any nonzero neighbor.
            seg = -1
            px = lo
            pf = f_lo
            ps = int(0 < pf) - int(pf < 0)
            for k in range(sections):
                if k < sections - 1:
                    cx = nodes_x[it, k]
                    cf = nodes_f[it, k]
                else:
                    cx = hi
                    cf = f_hi
                cs = int(0 < cf) - int(cf < 0)
                if cs != ps:
                    seg = k
                    break
                px = cx
                pf = cf
                ps = cs
            if seg < 0:
                return _TERM_NO_SIGN_CHANGE, lo, f_lo, it

            if seg < sections - 1:
                cx = nodes_x[it, seg]
                cf = nodes_f[it, seg]
            else:
                cx = hi
                cf = f_hi
            chosen_lo[it] = px
            chosen_hi[it] = cx
            it += 1
            w /= sections

            if cf == 0.0:
                return _TERM_EXACT, cx, 0.0, it
            if pf == 0.0:
                return _TERM_EXACT, px, 0.0, it

            if rtol > 0.0:
                best = 0
                for k in range(1, sections - 1):
                    if abs(nodes_f[it - 1, k]) < abs(nodes_f[it - 1, best]):
                        best = k
                if abs(nodes_f[it - 1, best]) <= rtol:
                    return (_TERM_RESIDUAL, nodes_x[it - 1, best],
                            nodes_f[it - 1, best], it)

            lo = px
            hi = cx
            f_lo = pf
            f_hi = cf

    return kernel


def _kernel_for(f):
    """The compiled kernel for target function f, or None."""
    if f in _kernel_cache:
        return _kernel_cache[f]
    kernel = None
    fj = _jitted(f)
    if fj is not None:
        nb = _get_numba()
        kernel = _make_kernel(nb, fj)
    _kernel_cache[f] = kernel
    return kernel


def solve_numba(problem: Problem, options: SolveOptions) -> Optional[SolveResult]:
    """Solve on the numba backend; None when f cannot be compiled.

    Endpoint values are computed with the jitted function too, so the
    whole run sees one evaluation engine."""
    kernel = _kernel_for(problem.f)
    if kernel is None:
        return None
    fj = _jit_cache[problem.f]
    nb = _get_numba()

    sections = options.sections
    try:
        f_lo, f_hi, done = _validate_endpoints(fj, problem.bracket)
        if done is not None:
            return done

        cap = options.max_iterations
        if cap is None:
            cap = predicted_max_iterations(
                problem.bracket, options.width_tolerance, sections) + 2
        rows = max(cap, 1)
        nodes_x = np.empty((rows, sections - 1), dtype=np.float64)
        nodes_f = np.empty((rows, sections - 1), dtype=np.float64)
        chosen_lo = np.empty(rows, dtype=np.float64)
        chosen_hi = np.empty(rows, dtype=np.float64)
        term, root, residual, iterations = kernel(
            problem.bracket.lo, problem.bracket.hi, f_lo, f_hi, sections,
            options.width_tolerance, options.residual_tolerance, cap,
            nodes_x, nodes_f, chosen_lo, chosen_hi,
        )
    except nb.core.errors.NumbaError:
        logger.warning("numba compile failed for %r; falling back", problem.id)
        _kernel_cache[problem.f] = None
        return None

    if term == _TERM_NAN:
        raise EvaluationError(f"f({root}) is NaN")
    if term == _TERM_NO_SIGN_CHANGE:
        raise NoSignChangeError(
            "no adjacent evaluation pair changes sign; "
            "is the function deterministic?"
        )

    termination = {
        _TERM_WIDTH: Termination.WIDTH_REACHED,
        _TERM_EXACT: Termination.EXACT_ZERO,
        _TERM_RESIDUAL: Termination.RESIDUAL_REACHED,
        _TERM_MAXITER: Termination.MAX_ITERATIONS,
    }[term]

    iterations = int(iterations)
    return SolveResult(
        root=float(root),
        residual=float(residual),
        iterations=iterations,
        function_evaluations=2 + (sections - 1) * iterations,
        termination=termination,
        steps=Steps(problem.bracket, nodes_x[:iterations], nodes_f[:iterations],
                    chosen_lo[:iterations], chosen_hi[:iterations]),
    )
