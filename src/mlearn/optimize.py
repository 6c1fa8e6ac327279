"""Full-batch first-order solver shared by the iterative learners.

Steepest descent (or ascent) along the normalized gradient direction with a
backtracking line search: trial steps halve until the Armijo condition with
c = 1e-4 holds at the (optionally projected) trial point. The step is
doubled before each iteration's first trial, starting from 1.0, so the first
trial step is 2.0 and each later iteration starts from twice the step last
accepted; the solver thus adapts to badly scaled objectives. Only improving
steps are ever accepted, which makes every objective trace monotone by
construction. Iteration stops when the objective change falls below
tol * (1 + |objective|) or the iteration cap is reached.

Objectives are value-first: each learner's ``X_objective(params, ...)``
returns ``(f, grad)``, where ``grad()`` gives the gradient at ``params``. A
trial point costs one objective value, and the gradient is computed only at
the starting point and at accepted steps.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .exceptions import ConvergenceWarning, NumericalError
from .model import FitReport

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-20
_MAX_STEP = 1e12


def backtracking_solve(fun, x0, max_iter: int, tol: float,
                       maximize: bool = False, project=None):
    """Minimize (or maximize) fun over x, returning (x, FitReport).

    fun(x) -> (objective, grad), where grad() returns the gradient at x; it
    is called once per entry of the returned trace (the starting point and
    each accepted step), never at a rejected trial. project(x) -> feasible
    x, applied to every trial point. The returned trace holds the true
    (un-negated) objective, one entry per outer iteration including the
    starting value.
    """
    sign = -1.0 if maximize else 1.0
    x = project(x0) if project is not None else np.asarray(x0, dtype=float)
    f, grad = fun(x)
    if not math.isfinite(f):
        raise NumericalError("objective is non-finite at the starting point")
    g = grad()
    trace = [f]
    converged = False
    step = 1.0
    for _ in range(max_iter):
        with np.errstate(over="ignore"):
            gnorm = math.sqrt((g * g).sum())
        if not math.isfinite(gnorm):
            if not np.all(np.isfinite(g)):
                raise NumericalError("gradient is non-finite")
            # the squares overflow (|g| beyond about 1e154): renormalise
            big = float(np.max(np.abs(g)))
            gnorm = big * float(np.sqrt(np.sum((g / big) ** 2)))
        if gnorm == 0.0:
            converged = True
            break
        direction = (-sign / gnorm) * g
        step = min(2.0 * step, _MAX_STEP)
        accepted = False
        while step >= _MIN_STEP:
            trial = x + step * direction
            if project is not None:
                trial = project(trial)
            f_new, grad = fun(trial)
            improvement = (f - f_new) if not maximize else (f_new - f)
            if math.isfinite(f_new) and improvement >= _ARMIJO_C * step * gnorm:
                accepted = True
                break
            if math.isfinite(f_new) and improvement > 0.0 and step < 1e-12:
                # subgradient kinks or projection can defeat strict Armijo;
                # accept any tiny improving step rather than stall
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        delta = abs(f - f_new)
        x, f, g = trial, f_new, grad()
        trace.append(f)
        if delta <= tol * (1.0 + abs(f)):
            converged = True
            break
    if not converged:
        warnings.warn(
            "solver reached its iteration cap before meeting the tolerance",
            ConvergenceWarning,
        )
    report = FitReport(
        converged=converged,
        n_iter=len(trace),
        final_objective=float(f),
        objective_trace=tuple(trace),
    )
    return x, report
