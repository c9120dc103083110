"""Dense linear algebra shared by the estimation code.

All routines operate on plain ``numpy`` arrays. Covariance matrices in
this package are small (p = 9 coefficients, at most a few hundred
observations per driver), so everything is dense and factorization
based; no sparse or iterative machinery.
"""

import numpy as np

# Relative pivot floor used to declare a Cholesky factorization failed.
PIVOT_RTOL = 1e-14

# Relative singular-value cutoff for the numerical rank of a matrix.
RANK_RTOL = 1e-12


class NotPositiveDefinite(ValueError):
    """Raised when a matrix required to be SPD fails its factorization."""


def check_symmetric(a):
    """Validate that ``a`` is a square symmetric matrix.

    Returns:
        ``a`` as a float ndarray.

    Raises:
        ValueError: if ``a`` is not square or not symmetric within 1e-12 per entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if np.abs(a - a.T).max() > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    return a


def spd_solve(a, b):
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    Uses a Cholesky factorization, never an explicit inverse.

    Args:
        a: (n, n) SPD matrix.
        b: (n,) vector or (n, k) matrix of right-hand sides.

    Returns:
        x with the same trailing shape as ``b``.

    Raises:
        NotPositiveDefinite: if the factorization fails or a pivot is
            at or below dim * 1e-14 * max|diag(a)|.
    """
    a = check_symmetric(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix is {a.shape[0]}x{a.shape[0]}")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    # The pivot for row i is chol[i, i]**2.
    floor = a.shape[0] * PIVOT_RTOL * np.max(np.abs(np.diag(a)))
    pivot = np.min(np.diag(chol)) ** 2
    if pivot <= floor:
        raise NotPositiveDefinite(f"factorization pivot {pivot:.3e} at or below floor {floor:.3e}")
    y = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, y)


def generalized_inverse(a):
    """Moore-Penrose generalized inverse via singular value decomposition.

    Singular values at or below max(dims) * sigma_max * 1e-12 are treated
    as zero, so rank-deficient inputs (for example a design with an
    unobserved stimulus type) are handled without error.

    Args:
        a: any (m, n) real matrix.

    Returns:
        the (n, m) pseudoinverse of ``a``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.size == 0:
        return np.zeros(a.shape[::-1])
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = max(a.shape) * s[0] * RANK_RTOL
    s_inv = np.zeros_like(s)
    keep = s > cutoff
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T


def is_psd(a, tol):
    """True iff the smallest eigenvalue of ``a`` is >= -tol * max(1, ||a||).

    ``a`` must pass ``check_symmetric``, whose error it raises. ``||a||`` is the
    spectral norm, max(-lambda_min, lambda_max), free from the eigenvalues.
    """
    eigs = np.linalg.eigvalsh(check_symmetric(a))
    return bool(eigs[0] >= -tol * max(1.0, -eigs[0], eigs[-1]))
