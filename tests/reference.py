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

