"""Population model fitting by numerical maximum likelihood.

The marginal covariance of one driver's log responses is
``V_d = sigma2 * (I + X_d @ Lambda @ X_d.T)`` with ``Lambda = Sigma_gamma /
sigma2``, block diagonal across drivers, so the Gaussian likelihood
factors per driver and the full n x n covariance is never materialized:
each evaluation solves the same p x p push-through system as serving
(``driver.reduced_solve``), for all drivers at once, and takes log det V_d
from Sylvester's determinant identity (``_PreparedDesigns``). For a fixed
Lambda, beta has the closed-form GLS solution (``gls_beta`` over
``marginal_cov`` blocks is its dense reference) and sigma2 the closed form
r'(V / sigma2)^-1 r / N, so the search runs over Lambda alone, on lme4's
profiled deviance (Bates et al. 2015, JSS 67(1), sec. 3.4). Lambda is kept
positive semidefinite by searching its Cholesky factor, whose diagonal is
stored in logs. The search is BFGS on the deviance's analytic gradient,
from the covariance of per-driver OLS coefficients; the solve at its
optimum also gives beta, sigma2 and beta's covariance.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .driver import reduced_solve
from .model import (FitInfo, ModelSpec, StimulusRegistry, TrainedModel, atomic_write_text, build_design,
                    read_json)
from .numerics import NotPositiveDefinite, generalized_inverse, spd_solve

LOG2PI = math.log(2.0 * math.pi)

# Parameter-vector entries beyond this magnitude would overflow exp();
# the deviance treats such points as infeasible.
_PARAM_BOUND = 30.0

# BFGS stops once the predicted decrease g'Hg/2 is this small.
_PREDICTED_DECREASE_TOL = 1e-10


@dataclass(eq=False)
class TrainingSet:
    """Multi-driver observation pool used to fit the population model."""

    spec: ModelSpec
    stimuli: StimulusRegistry
    drivers: dict

    def __post_init__(self):
        if not self.drivers:
            raise ValueError("training set has no drivers")
        for driver_id, obs in self.drivers.items():
            if not obs:
                raise ValueError(f"driver {driver_id!r} has no observations")

    @classmethod
    def from_observations(cls, spec, stimuli, observations):
        """Group a flat observation list by driver, preserving order."""
        drivers = {}
        for o in observations:
            drivers.setdefault(o.driver_id, []).append(o)
        return cls(spec=spec, stimuli=stimuli, drivers=drivers)

    @property
    def num_observations(self):
        return sum(len(v) for v in self.drivers.values())


def chol_indices(p, num_blocks=None):
    """Row/column indices of the free lower-triangle entries.

    With ``num_blocks`` set, only entries inside the per-stimulus
    diagonal blocks are free (the block-diagonal reduction); otherwise
    the whole lower triangle is free.
    """
    if num_blocks and p % num_blocks:
        raise ValueError("p must be divisible by the block count")
    width = p // num_blocks if num_blocks else p
    return [(i, j) for i in range(p) for j in range(i + 1) if i // width == j // width]


@dataclass(eq=False)
class VarianceParams:
    """Unconstrained parameterization of (sigma, Sigma_gamma).

    ``sigma = exp(log_sigma)``. ``chol_factor`` is lower triangular with
    its diagonal stored as logs, so ``Sigma_gamma = L @ L.T`` (with the
    diagonal exponentiated) is positive semidefinite for every parameter
    value.
    """

    log_sigma: float
    chol_factor: np.ndarray

    def __post_init__(self):
        self.chol_factor = np.asarray(self.chol_factor, dtype=float)
        p = self.chol_factor.shape[0]
        if self.chol_factor.shape != (p, p):
            raise ValueError("chol_factor must be square")
        if np.any(np.triu(self.chol_factor, k=1) != 0.0):
            raise ValueError("chol_factor must be lower triangular")

    @property
    def sigma2(self):
        return math.exp(2.0 * self.log_sigma)

    def sigma_gamma(self):
        L = self.chol_factor.copy()
        np.fill_diagonal(L, np.exp(np.diag(L)))
        sg = L @ L.T
        return 0.5 * (sg + sg.T)


def marginal_cov(spec, X_d, params):
    """Marginal covariance of one driver's log responses (dense reference).

    Returns ``X_d @ Sigma_gamma @ X_d.T + sigma2 * I``, which is SPD for
    any parameter value since sigma2 > 0 by construction.
    """
    X_d = np.asarray(X_d, dtype=float)
    if X_d.ndim != 2 or X_d.shape[1] != spec.p:
        raise ValueError(f"X_d must have {spec.p} columns")
    n = X_d.shape[0]
    V = X_d @ params.sigma_gamma() @ X_d.T + params.sigma2 * np.eye(n)
    return 0.5 * (V + V.T)


def gls_beta(X, y, V_blocks):
    """Block-diagonal GLS, the dense reference for ``fit``'s beta and beta_cov.

    ``X`` and ``y`` are the stacked per-driver designs and responses;
    ``V_blocks`` holds one SPD covariance block per driver, conformal
    with the row spans in order. The full covariance is never formed.

    Returns:
        (beta, beta_cov) where beta solves the GLS normal equations via
        the generalized inverse and beta_cov = (X' V^-1 X)^-.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = X.shape[1]
    info = np.zeros((p, p))
    score = np.zeros(p)
    offset = 0
    for V_d in V_blocks:
        n_d = V_d.shape[0]
        X_d = X[offset : offset + n_d]
        y_d = y[offset : offset + n_d]
        W = spd_solve(V_d, np.column_stack([X_d, y_d]))
        info += X_d.T @ W[:, :p]
        score += X_d.T @ W[:, p]
        offset += n_d
    if offset != X.shape[0]:
        raise ValueError("covariance blocks do not span all rows")
    info = 0.5 * (info + info.T)
    beta_cov = generalized_inverse(info)
    beta_cov = 0.5 * (beta_cov + beta_cov.T)
    return beta_cov @ score, beta_cov


def _factor(p, theta, indices):
    """Lower-triangular factor holding ``theta`` on ``indices``, with the
    diagonal entries (stored as logs) exponentiated."""
    L = np.zeros((p, p))
    L[tuple(zip(*indices))] = theta
    np.fill_diagonal(L, np.exp(np.diag(L)))
    return L


class _PreparedDesigns:
    """Per-driver sufficient statistics for fast likelihood evaluation.

    The cross products X'X, X'y, y'y per driver do not depend on the
    variance parameters, so they are accumulated once. Each likelihood
    evaluation then solves the serving path's batched p x p push-through
    system (``driver.reduced_solve``) at sigma2 = 1, M = I_p + Lambda X'X,
    whose eigenvalues are >= 1, and uses Sylvester's determinant identity
    and (V / sigma2)^-1 = I - X Lambda X' (V / sigma2)^-1:

        M^-T [X'X | X'y] = X' (V / sigma2)^-1 [X | y],
        log det (V / sigma2) = log det M,
        r' (V / sigma2)^-1 r = r'r - (X'r)' Lambda X' (V / sigma2)^-1 r,

    which keeps the cost independent of the per-driver observation
    counts and never materializes any n x n matrix.

    Raises:
        ValueError: naming a driver whose design or cross products overflow.
    """

    def __init__(self, ts):
        self.spec = ts.spec
        per_driver = []
        for driver_id, observations in ts.drivers.items():
            try:
                per_driver.append(build_design(ts.spec, observations))
            except ValueError as exc:
                raise ValueError(f"driver {driver_id!r}: {exc}") from None
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.xtx = np.stack([X.T @ X for X, _ in per_driver])
            self.xty = np.stack([X.T @ y for X, y in per_driver])
            self.yty = np.array([float(y @ y) for _, y in per_driver])
        self.xtxy = np.concatenate([self.xtx, self.xty[:, :, None]], axis=2)
        finite = np.isfinite(self.xtxy).all(axis=(1, 2)) & np.isfinite(self.yty)
        if not finite.all():
            bad = list(ts.drivers)[int(np.argmin(finite))]
            raise ValueError(f"driver {bad!r}: headway too large for a degree-{ts.spec.degree} design")
        self.designs = per_driver
        self.total_n = sum(X.shape[0] for X, _ in per_driver)

    def solve(self, lam):
        """The GLS fit at Lambda = Sigma_gamma / sigma2, by one batched solve.

        Returns (logdet, q, beta, info, u): sum_d log det (V_d / sigma2),
        q = sum_d r_d' (V_d / sigma2)^-1 r_d at the GLS beta, beta,
        info = sum_d X_d' (V_d / sigma2)^-1 X_d, and the rows
        u_d = X_d' (V_d / sigma2)^-1 r_d.

        Raises:
            NotPositiveDefinite: if a reduced system is numerically singular.
        """
        p = self.spec.p
        m, W = reduced_solve(self.xtx, lam, 1.0, self.xtxy)
        sign, logdet_m = np.linalg.slogdet(m)
        if np.any(sign <= 0):
            raise NotPositiveDefinite("reduced covariance system is numerically singular")
        info = W[:, :, :p].sum(axis=0)
        info = 0.5 * (info + info.T)
        beta = generalized_inverse(info) @ W[:, :, p].sum(axis=0)

        # Residual quadratic form from exact residual cross products.
        xtr = self.xty - self.xtx @ beta
        rtr = self.yty - 2.0 * self.xty @ beta + (self.xtx @ beta) @ beta
        u = W[:, :, p] - W[:, :, :p] @ beta
        q = float(np.sum(rtr - np.einsum("di,di->d", xtr @ lam, u)))
        return float(np.sum(logdet_m)), q, beta, info, u

    def profile_loglik(self, params):
        """Profile log-likelihood at these variance parameters (GLS beta
        plugged into the Gaussian density), by ``solve`` at Lambda =
        Sigma_gamma / sigma2. Returns (loglik, beta, info) with info =
        sum_d X_d' V_d^-1 X_d; raises as ``solve`` does."""
        sigma2 = params.sigma2
        logdet, q, beta, info, _ = self.solve(params.sigma_gamma() / sigma2)
        loglik = -0.5 * (self.total_n * (LOG2PI + math.log(sigma2)) + logdet + q / sigma2)
        return loglik, beta, info / sigma2

    def deviance(self, theta, indices):
        """-loglik at the closed-form sigma2 = q / N, and its gradient in
        ``theta``, the entries on ``indices`` of Lambda's Cholesky factor L
        (diagonal in logs); (inf, None) where theta is infeasible.

        The deviance is (N log 2pi + N log(q / N) + sum_d log det M_d + N) / 2.
        beta and sigma2 sit at their optima, so the gradient in Lambda is
        G = (info - (N / q) sum_d u_d u_d') / 2 (Pinheiro & Bates 1996),
        2 G L in L, and L_ii times that on the log diagonal.
        """
        if np.max(np.abs(theta)) > _PARAM_BOUND:
            return np.inf, None
        L = _factor(self.spec.p, theta, indices)
        try:
            logdet, q, _, info, u = self.solve(L @ L.T)
        except NotPositiveDefinite:
            return np.inf, None
        if not q > 0:  # cancelled to nothing, far from the optimum
            return np.inf, None
        n = self.total_n
        grad = (info - (n / q) * (u.T @ u)) @ L
        grad[np.diag_indices_from(grad)] *= np.diag(L)
        return 0.5 * (n * (LOG2PI + math.log(q / n) + 1.0) + logdet), grad[tuple(zip(*indices))]


def log_likelihood(ts, params):
    """Marginal Gaussian log-likelihood of a training set.

    The fixed effects are profiled out: beta is set to its GLS estimate
    under these variance parameters, and the returned value is
    ``-0.5 * sum_d [n_d log 2pi + log det V_d + r_d' V_d^-1 r_d]`` with
    ``r_d = y_d - X_d beta``.
    """
    loglik, _, _ = _PreparedDesigns(ts).profile_loglik(params)
    return loglik


@dataclass
class FitOptions:
    """Knobs for the maximum-likelihood search. ``max_iter`` caps the BFGS
    iterations; ``restarts`` and ``seed`` change nothing (the search is
    deterministic and has one start), and ``seed`` is echoed into the
    model's ``fit_info``."""

    max_iter: int = 8000
    restarts: int = 3
    seed: int = 42
    block_diagonal: bool = False


def _moment_start(prepared, indices):
    """Starting theta of the search: Lambda = C / s2, where C is the sample
    covariance of independent per-driver OLS coefficients, restricted to
    the free entries of ``indices`` and PSD-projected, and s2 the pooled
    (rank-aware) OLS residual variance.

    Raises:
        ValueError: if the coefficient covariance is not finite.
    """
    coefs, rss, dof = [], 0.0, 0
    for X, y in prepared.designs:
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        coefs.append(coef)
        rss += float((y - X @ coef) @ (y - X @ coef))
        dof += max(X.shape[0] - int(rank), 0)
    if dof > 0 and rss > 0:
        sigma2 = rss / dof
    else:
        sigma2 = max(float(np.var(np.concatenate([y for _, y in prepared.designs]))), 1e-8)
    cov = np.atleast_2d(np.cov(np.array(coefs).T))
    if not np.all(np.isfinite(cov)):
        raise ValueError("per-driver OLS coefficients have a non-finite covariance")
    p = cov.shape[0]
    free = tuple(zip(*indices))
    mask = np.zeros((p, p), dtype=bool)
    mask[free] = True
    cov = cov * (mask | mask.T)  # honor the block-diagonal reduction
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = max(float(eigvals[-1]), 1e-6) * 1e-6
    cov = (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T
    chol = np.linalg.cholesky((cov + floor * np.eye(p)) / sigma2)
    np.fill_diagonal(chol, np.log(np.diag(chol)))
    return chol[free]


Search = namedtuple("Search", "x fun iterations nfev converged")


def bfgs(fn, x0, max_iter, grad):
    """Minimize ``fn``, which maps x to a value, infinite where x is
    infeasible, with gradient ``grad(x)`` wherever ``fn(x)`` was finite, by
    BFGS on the inverse Hessian H (Nocedal & Wright 2006, Algorithm 6.1)
    with backtracking to Armijo's condition. No step moves a coordinate by
    more than 1: one early step could otherwise throw a log-diagonal entry
    out to where its gradient vanishes.

    Converged means the predicted decrease g'Hg/2 is at most
    ``_PREDICTED_DECREASE_TOL``, or no step along -Hg gains anything above
    rounding, with H just reset to the identity: near a boundary optimum
    g need not vanish, and a stale H can predict too little.

    Returns:
        Search(x, fun, iterations, nfev, converged); nfev counts calls of fn.
    """
    x = np.asarray(x0, dtype=float)
    f, g, nfev = fn(x), grad(x), 1
    H = np.eye(x.size)
    fresh = True  # H is the identity
    for iteration in range(1, max_iter + 1):
        d = -H @ g
        step = None
        if -0.5 * (g @ d) > _PREDICTED_DECREASE_TOL:
            d /= max(1.0, np.max(np.abs(d)))
            slope = g @ d
            t = 1.0
            while -t * slope > np.finfo(float).eps * abs(f):
                trial = x + t * d
                f_new, nfev = fn(trial), nfev + 1
                if f_new <= f + 1e-4 * t * slope:
                    step, g_new = t * d, grad(trial)
                    break
                t *= 0.5
        if step is None:
            if fresh:
                return Search(x, f, iteration, nfev, True)
            H, fresh = np.eye(x.size), True
            continue
        dg = g_new - g
        x, f, g, fresh = trial, f_new, g_new, False
        curvature = step @ dg
        if curvature > 0:  # keeps H positive definite
            v = np.eye(x.size) - np.outer(step, dg) / curvature
            H = v @ H @ v.T + np.outer(step, step) / curvature
    return Search(x, f, max_iter, nfev, False)


# ``fit`` calls ``bfgs`` by the name perfbench hooks, kept from the Nelder-Mead
# search, to count deviance evaluations and time its host-speed kernel.
nelder_mead = bfgs


def fit(ts, opts=None):
    """Fit the population model by maximum likelihood.

    ``bfgs`` on the profiled deviance over Lambda = Sigma_gamma / sigma2
    (``_PreparedDesigns.deviance``) from ``_moment_start``, shrunk by 4
    until the deviance there is finite. beta, sigma2 = q / N, Sigma_gamma
    = sigma2 Lambda and beta_cov come from the solve at the optimum.

    Returns:
        TrainedModel; ``fit_info.converged`` is False when the iteration
        budget ran out first (the result is returned regardless).

    Raises:
        ValueError: if the deviance is not finite anywhere on the way
            from the moment start towards Lambda = 0.
    """
    if opts is None:
        opts = FitOptions()
    if len(ts.drivers) < 2:
        raise ValueError("at least 2 drivers required")
    p = ts.spec.p
    prepared = _PreparedDesigns(ts)
    indices = chol_indices(p, ts.spec.num_stimuli if opts.block_diagonal else None)
    solved = [None, None]  # the last theta evaluated, and the gradient there

    def deviance(theta):
        value, solved[1] = prepared.deviance(theta, indices)
        solved[0] = theta
        return value

    def gradient(theta):
        return solved[1] if theta is solved[0] else prepared.deviance(theta, indices)[1]

    theta = _moment_start(prepared, indices)
    on_diag = np.array([i == j for i, j in indices])
    for _ in range(64):
        if np.isfinite(deviance(theta)):
            break
        theta = np.where(on_diag, theta - math.log(2.0), 0.5 * theta)  # Lambda / 4
    else:
        raise ValueError("the likelihood is not finite near the moment start")
    theta, neg_loglik, iterations, _, converged = nelder_mead(deviance, theta, opts.max_iter,
                                                              grad=gradient)

    L = _factor(p, theta, indices)
    lam = L @ L.T
    _, q, beta, info, _ = prepared.solve(lam)
    sigma2 = q / prepared.total_n
    sigma_gamma = sigma2 * 0.5 * (lam + lam.T)
    beta_cov = sigma2 * generalized_inverse(info)
    beta_cov = 0.5 * (beta_cov + beta_cov.T)

    fit_info = FitInfo(converged=converged, loglik=-float(neg_loglik), iterations=int(iterations),
                       seed=int(opts.seed))
    return TrainedModel(spec=ts.spec, stimuli=ts.stimuli, beta=beta, sigma2=sigma2,
                        sigma_gamma=sigma_gamma, beta_cov=beta_cov, fit_info=fit_info)


def model_to_dict(model):
    """JSON-ready dict for a trained model (fixed key order)."""
    doc = {
        "spec": {
            "num_stimuli": model.spec.num_stimuli,
            "degree": model.spec.degree,
            "stimuli": list(model.stimuli.names),
        },
        "beta": model.beta.tolist(),
        "sigma2": float(model.sigma2),
        "sigma_gamma": model.sigma_gamma.tolist(),
        "beta_cov": model.beta_cov.tolist(),
        "t_star": float(model.t_star),
        "fit_info": None,
    }
    if model.fit_info is not None:
        doc["fit_info"] = {
            "converged": bool(model.fit_info.converged),
            "loglik": float(model.fit_info.loglik),
            "iterations": int(model.fit_info.iterations),
            "seed": int(model.fit_info.seed),
        }
    return doc


def model_from_dict(doc):
    spec = ModelSpec(num_stimuli=int(doc["spec"]["num_stimuli"]), degree=int(doc["spec"]["degree"]))
    registry = StimulusRegistry(doc["spec"]["stimuli"])
    fit_info = None
    if doc.get("fit_info") is not None:
        fi = doc["fit_info"]
        fit_info = FitInfo(
            converged=bool(fi["converged"]),
            loglik=float(fi["loglik"]),
            iterations=int(fi["iterations"]),
            seed=int(fi["seed"]),
        )
    return TrainedModel(
        spec=spec,
        stimuli=registry,
        beta=np.array(doc["beta"], dtype=float),
        sigma2=float(doc["sigma2"]),
        sigma_gamma=np.array(doc["sigma_gamma"], dtype=float),
        beta_cov=np.array(doc["beta_cov"], dtype=float),
        t_star=float(doc["t_star"]),
        fit_info=fit_info,
    )


def save_model(model, path):
    """Write a model file atomically. Python's repr of floats keeps 17
    significant digits, so values round-trip exactly."""
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    return read_json(path, model_from_dict, "model file")
