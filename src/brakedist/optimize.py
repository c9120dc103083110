"""Derivative-free simplex minimization (Nelder-Mead).

Self-contained so the training step has full control over the initial
simplex, the termination rule, and determinism. Uses the adaptive
coefficients of Gao & Han, which behave far better than the classic
(1, 2, 0.5, 0.5) choice when the dimension runs into the tens.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class MinimizeResult:
    x: np.ndarray
    fx: float
    iterations: int
    nfev: int
    converged: bool


def initial_simplex(x0, step):
    """Simplex with vertex ``x0`` plus one vertex per coordinate offset.

    ``step`` is a scalar or per-coordinate array of absolute offsets;
    signed values tilt the simplex in a chosen direction.
    """
    x0 = np.asarray(x0, dtype=float)
    step = np.broadcast_to(np.asarray(step, dtype=float), x0.shape)
    if np.any(step == 0.0):
        raise ValueError("every simplex step must be nonzero")
    simplex = np.tile(x0, (x0.size + 1, 1))
    simplex[1:] += np.diag(step)
    return simplex


def nelder_mead(fn, x0, step, tol=1e-6, max_iter=1000):
    """Minimize ``fn`` from ``x0`` with a Nelder-Mead simplex search.

    Args:
        fn: objective mapping a 1-d ndarray to a float; may return +inf
            for infeasible points.
        x0: starting point.
        step: per-coordinate offsets used to build the initial simplex.
        tol: converged when the spread of objective values across the
            simplex falls below this (absolute).
        max_iter: iteration cap; one iteration is one reflect /
            expand / contract / shrink step.

    Returns:
        MinimizeResult with the best vertex. ``converged`` is True only
        when the simplex spread fell below ``tol``; reaching ``max_iter``
        first leaves it False, however little the best value still moves.
    """
    simplex = initial_simplex(x0, step)
    dim = simplex.shape[1]

    # Gao & Han adaptive coefficients.
    alpha = 1.0
    gamma = 1.0 + 2.0 / dim
    rho = 0.75 - 1.0 / (2.0 * dim)
    sigma = 1.0 - 1.0 / dim

    fvals = np.array([fn(v) for v in simplex], dtype=float)
    nfev = dim + 1
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]

        spread = fvals[-1] - fvals[0]
        if not np.isfinite(spread) and np.isfinite(fvals[0]):
            spread = np.inf
        if spread < tol:
            converged = True
            break

        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = fn(xr)
        nfev += 1

        if fr < fvals[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = fn(xe)
            nfev += 1
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-1]:
            xc = centroid + rho * (xr - centroid)
            fc = fn(xc)
            nfev += 1
            if fc <= fr:
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
                fvals[1:] = [fn(v) for v in simplex[1:]]
                nfev += dim
        else:
            xc = centroid + rho * (simplex[-1] - centroid)
            fc = fn(xc)
            nfev += 1
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
                fvals[1:] = [fn(v) for v in simplex[1:]]
                nfev += dim

    best = int(np.argmin(fvals))
    return MinimizeResult(
        x=simplex[best].copy(),
        fx=float(fvals[best]),
        iterations=iterations,
        nfev=nfev,
        converged=converged,
    )
