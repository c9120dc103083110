"""Independent reference computations for the test suite.

Kept out of the package: nothing in ``brakedist`` calls them. (Not named
``oracles``: the benchmark's ``perfbench/oracles.py`` is imported by that
name in the same test session.)
"""

import numpy as np

from brakedist.model import build_design
from brakedist.numerics import spd_solve


def henderson_oracle(state, model):
    """Independent prediction of the driver offsets via the mixed-model
    normal equations.

    Solves ``(X'X / sigma2 + Sigma_gamma^-1) gamma = X' r / sigma2``
    restricted to the range space of Sigma_gamma (the pseudo-inverse
    convention) by Cholesky in the eigenbasis of that range; compute_blup
    never inverts Sigma_gamma and solves sigma2 I + X'X Sigma_gamma by LU.

    Requires at least one observation.
    """
    if state.n == 0:
        raise ValueError("henderson_oracle requires at least one observation")
    X, y = build_design(model.spec, state.observations)
    resid = y - X @ model.beta
    sg = model.sigma_gamma

    eigvals, eigvecs = np.linalg.eigh(sg)
    cutoff = sg.shape[0] * max(float(eigvals[-1]), 0.0) * 1e-12
    keep = eigvals > cutoff
    if not np.any(keep):
        return np.zeros(model.spec.p)
    basis = eigvecs[:, keep]
    lam = eigvals[keep]

    Xb = X @ basis
    lhs = Xb.T @ Xb / model.sigma2 + np.diag(1.0 / lam)
    rhs = Xb.T @ resid / model.sigma2
    w = spd_solve(0.5 * (lhs + lhs.T), rhs)
    return basis @ w


def lstsq_moment_start(ts, free):
    """``training._moment_start`` computed driver by driver: minimum-norm
    OLS coefficients, rank and residual sum of squares by ``lstsq`` on each
    driver's design, where the package reads them off the cross products.
    """
    designs = [build_design(ts.spec, obs) for obs in ts.drivers.values()]
    coefs, rss, dof = [], 0.0, 0
    for X, y in designs:
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        coefs.append(coef)
        rss += float((y - X @ coef) @ (y - X @ coef))
        dof += max(X.shape[0] - int(rank), 0)
    if dof > 0 and rss > 0:
        sigma2 = rss / dof
    else:
        sigma2 = max(float(np.var(np.concatenate([y for _, y in designs]))), 1e-8)
    cov = np.atleast_2d(np.cov(np.array(coefs).T))
    cov = cov * (free | free.T)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = max(float(eigvals[-1]), 1e-6) * 1e-6
    cov = (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T
    chol = np.linalg.cholesky((cov + floor * np.eye(len(cov))) / sigma2)
    np.fill_diagonal(chol, np.log(np.diag(chol)))
    return chol[free]
