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
stored in logs: theta holds the factor's entries on a boolean mask
(``chol_mask``). The search is BFGS on the deviance's analytic gradient,
from the covariance of per-driver OLS coefficients; the solve at its
optimum also gives beta, sigma2 and beta's covariance. The deviance and
the start need only each driver's X'X, X'y and y'y. Everything outside
the search takes the variance parameters as the model stores them,
(sigma2, Sigma_gamma): ``log_likelihood`` evaluates the same kernel there.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .driver import reduced_solve
from .model import (FitInfo, ModelSpec, StimulusRegistry, TrainedModel, atomic_write_text, build_design,
                    json_array, json_number, read_json)
from .numerics import (RANK_RTOL, NotPositiveDefinite, check_symmetric, generalized_inverse, is_psd,
                       spd_solve)

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


def chol_mask(p, num_blocks=None):
    """Free entries of Lambda's Cholesky factor as a boolean p x p mask: the
    lower triangle, or only its per-stimulus diagonal blocks when
    ``num_blocks`` is set (the block-diagonal reduction). Boolean indexing
    walks it in row-major order, which fixes the order of theta's entries."""
    if num_blocks and p % num_blocks:
        raise ValueError("p must be divisible by the block count")
    block = np.arange(p) // (p // num_blocks if num_blocks else p)
    return np.tril(block[:, None] == block)


def marginal_cov(spec, X_d, sigma2, sigma_gamma):
    """Marginal covariance of one driver's log responses (dense reference).

    Returns ``X_d @ sigma_gamma @ X_d.T + sigma2 * I``, which is SPD for
    sigma2 > 0 and a PSD sigma_gamma.
    """
    X_d = np.asarray(X_d, dtype=float)
    if X_d.ndim != 2 or X_d.shape[1] != spec.p:
        raise ValueError(f"X_d must have {spec.p} columns")
    n = X_d.shape[0]
    V = X_d @ sigma_gamma @ X_d.T + sigma2 * np.eye(n)
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


def _factor(theta, free):
    """Lower-triangular factor holding ``theta`` on the mask ``free``, with
    the diagonal entries (stored as logs) exponentiated."""
    L = np.zeros(free.shape)
    L[free] = theta
    np.fill_diagonal(L, np.exp(np.diag(L)))
    return L


class _PreparedDesigns:
    """Per-driver sufficient statistics for fast likelihood evaluation.

    The cross products X'X, X'y, y'y per driver do not depend on the
    variance parameters, so they are formed once, from each driver's row
    span of one design over all rows in ``ts.drivers`` order. Each likelihood
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
        try:
            X, y = build_design(ts.spec, [o for obs in ts.drivers.values() for o in obs])
        except ValueError:
            for driver_id, observations in ts.drivers.items():
                try:
                    build_design(ts.spec, observations)
                except ValueError as exc:
                    raise ValueError(f"driver {driver_id!r}: {exc}") from None
            raise
        cuts = np.cumsum([len(obs) for obs in ts.drivers.values()])[:-1]
        spans = list(zip(np.split(X, cuts), np.split(y, cuts)))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.xtx = np.stack([X_d.T @ X_d for X_d, _ in spans])
            self.xty = np.stack([X_d.T @ y_d for X_d, y_d in spans])
            self.yty = np.array([float(y_d @ y_d) for _, y_d in spans])
        self.xtxy = np.concatenate([self.xtx, self.xty[:, :, None]], axis=2)
        finite = np.isfinite(self.xtxy).all(axis=(1, 2)) & np.isfinite(self.yty)
        if not finite.all():
            bad = list(ts.drivers)[int(np.argmin(finite))]
            raise ValueError(f"driver {bad!r}: headway too large for a degree-{ts.spec.degree} design")
        self.total_n = X.shape[0]
        self.y_var = float(np.var(y))  # the moment start's fallback residual variance

    def solve(self, lam):
        """The GLS fit at Lambda = Sigma_gamma / sigma2, by one batched solve.

        Returns (logdet, q, beta, info, u): sum_d log det (V_d / sigma2),
        q = sum_d r_d' (V_d / sigma2)^-1 r_d at the GLS beta, beta,
        info = sum_d X_d' (V_d / sigma2)^-1 X_d, and the rows
        u_d = X_d' (V_d / sigma2)^-1 r_d.

        Raises:
            NotPositiveDefinite: if a reduced system is numerically singular.
        """
        p = self.xtx.shape[-1]
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

    def deviance(self, theta, free):
        """-loglik at the closed-form sigma2 = q / N, and its gradient in
        ``theta``, the entries on the mask ``free`` of Lambda's Cholesky factor L
        (diagonal in logs); (inf, None) where theta is infeasible.

        The deviance is (N log 2pi + N log(q / N) + sum_d log det M_d + N) / 2.
        beta and sigma2 sit at their optima, so the gradient in Lambda is
        G = (info - (N / q) sum_d u_d u_d') / 2 (Pinheiro & Bates 1996),
        2 G L in L, and L_ii times that on the log diagonal.
        """
        if np.max(np.abs(theta)) > _PARAM_BOUND:
            return np.inf, None
        L = _factor(theta, free)
        try:
            logdet, q, _, info, u = self.solve(L @ L.T)
        except NotPositiveDefinite:
            return np.inf, None
        if not q > 0:  # cancelled to nothing, far from the optimum
            return np.inf, None
        n = self.total_n
        grad = (info - (n / q) * (u.T @ u)) @ L
        grad[np.diag_indices_from(grad)] *= np.diag(L)
        return 0.5 * (n * (LOG2PI + math.log(q / n) + 1.0) + logdet), grad[free]


def log_likelihood(ts, sigma2, sigma_gamma):
    """Marginal Gaussian log-likelihood of a training set.

    The fixed effects are profiled out: beta is set to its GLS estimate
    under these variance parameters, and the returned value is
    ``-0.5 * sum_d [n_d log 2pi + log det V_d + r_d' V_d^-1 r_d]`` with
    ``r_d = y_d - X_d beta``.

    Raises:
        ValueError: naming the argument, unless sigma2 is positive and
            finite and sigma_gamma is a p x p symmetric PSD matrix.
        NotPositiveDefinite: as ``_PreparedDesigns.solve`` does.
    """
    p = ts.spec.p
    sigma_gamma = np.asarray(sigma_gamma, dtype=float)
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if sigma_gamma.shape != (p, p) or not np.all(np.isfinite(sigma_gamma)):
        raise ValueError(f"sigma_gamma must be a finite {p} x {p} matrix")
    try:
        psd = is_psd(check_symmetric(sigma_gamma), 1e-8)
    except ValueError as exc:
        raise ValueError(f"sigma_gamma: {exc}") from None
    if not psd:
        raise ValueError("sigma_gamma is not positive semidefinite")
    logdet, q, _, _, _ = _PreparedDesigns(ts).solve(sigma_gamma / sigma2)
    return -0.5 * (ts.num_observations * (LOG2PI + math.log(sigma2)) + logdet + q / sigma2)


@dataclass
class FitOptions:
    """Knobs for the maximum-likelihood search. ``max_iter`` caps the BFGS
    iterations. ``restarts`` changes nothing (the search is deterministic
    and has one start); it is kept only because the benchmark harness
    builds ``FitOptions(restarts=1)``."""

    max_iter: int = 8000
    restarts: int = 3
    block_diagonal: bool = False


def _moment_start(prepared, free):
    """Starting theta of the search: Lambda = C / s2, where C is the sample
    covariance of independent per-driver OLS coefficients, restricted to
    the free entries of the mask ``free`` and PSD-projected, and s2 the pooled
    (rank-aware) OLS residual variance. Each driver's minimum-norm OLS
    coefficients, rank and residual sum of squares y'y - coef'X'y come from
    one batched eigendecomposition of X'X, cut at p * RANK_RTOL times the
    largest eigenvalue.

    Raises:
        ValueError: if the coefficient covariance is not finite.
    """
    eigvals, eigvecs = np.linalg.eigh(prepared.xtx)
    kept = eigvals > eigvals.shape[1] * RANK_RTOL * eigvals[:, -1:]
    scale = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=kept)
    coefs = np.einsum("dij,dj->di", eigvecs, scale * np.einsum("dji,dj->di", eigvecs, prepared.xty))
    rss = float(np.sum(prepared.yty - np.einsum("di,di->d", coefs, prepared.xty)))
    dof = prepared.total_n - int(kept.sum())  # rank <= n_d for every driver
    if dof > 0 and rss > 0:
        sigma2 = rss / dof
    else:
        sigma2 = max(prepared.y_var, 1e-8)
    cov = np.atleast_2d(np.cov(coefs.T))
    if not np.all(np.isfinite(cov)):
        raise ValueError("per-driver OLS coefficients have a non-finite covariance")
    cov = cov * (free | free.T)  # honor the block-diagonal reduction
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = max(float(eigvals[-1]), 1e-6) * 1e-6
    cov = (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T
    chol = np.linalg.cholesky((cov + floor * np.eye(len(cov))) / sigma2)
    np.fill_diagonal(chol, np.log(np.diag(chol)))
    return chol[free]


Search = namedtuple("Search", "x fun iterations nfev converged")


def bfgs(fn, x0, max_iter, grad):
    """Minimize ``fn``, which maps x to a value, infinite where x is
    infeasible, with gradient ``grad(x)`` wherever ``fn(x)`` was finite, by
    BFGS on the inverse Hessian H (Nocedal & Wright 2006, Algorithm 6.1).
    No step moves a coordinate by more than 1: one early step could
    otherwise throw a log-diagonal entry out to where its gradient vanishes.

    The line search tries t = 1 along d = -Hg and accepts the first t that
    meets Armijo's condition f(x + t d) <= f + 1e-4 t g'd. A rejected
    finite trial moves t to the minimizer of the quadratic through f, the
    slope g'd and the trial's value, clipped to [t / 10, t / 2] (Nocedal &
    Wright, sec. 3.5); an infinite trial halves t. The search gives up once
    the most t could gain, -t g'd, is at most max(eps |f|,
    ``_PREDICTED_DECREASE_TOL``): rounding, or a gain the stop rule below
    would not count.

    Converged means the predicted decrease g'Hg/2 is at most
    ``_PREDICTED_DECREASE_TOL``, or, with H just reset to the identity, no
    step along -Hg gains more than max(rounding,
    ``_PREDICTED_DECREASE_TOL``): near a boundary optimum g need not
    vanish, and a stale H can predict too little.

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
            while -t * slope > max(np.finfo(float).eps * abs(f), _PREDICTED_DECREASE_TOL):
                trial = x + t * d
                f_new, nfev = fn(trial), nfev + 1
                if f_new <= f + 1e-4 * t * slope:
                    step, g_new = t * d, grad(trial)
                    break
                if np.isfinite(f_new):
                    # Minimizer of the quadratic through f, slope and f_new.
                    t_min = -slope * t * t / (2.0 * (f_new - f - slope * t))
                    t = min(max(t_min, 0.1 * t), 0.5 * t)
                else:
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
    free = chol_mask(p, ts.spec.num_stimuli if opts.block_diagonal else None)
    solved = [None, None]  # the last theta evaluated, and the gradient there

    def deviance(theta):
        value, solved[1] = prepared.deviance(theta, free)
        solved[0] = theta
        return value

    def gradient(theta):
        return solved[1] if theta is solved[0] else prepared.deviance(theta, free)[1]

    theta = _moment_start(prepared, free)
    on_diag = np.eye(p, dtype=bool)[free]
    for _ in range(64):
        if np.isfinite(deviance(theta)):
            break
        theta = np.where(on_diag, theta - math.log(2.0), 0.5 * theta)  # Lambda / 4
    else:
        raise ValueError("the likelihood is not finite near the moment start")
    theta, neg_loglik, iterations, _, converged = nelder_mead(deviance, theta, opts.max_iter,
                                                              grad=gradient)

    L = _factor(theta, free)
    lam = L @ L.T
    _, q, beta, info, _ = prepared.solve(lam)
    sigma2 = q / prepared.total_n
    sigma_gamma = sigma2 * 0.5 * (lam + lam.T)
    beta_cov = sigma2 * generalized_inverse(info)
    beta_cov = 0.5 * (beta_cov + beta_cov.T)

    fit_info = FitInfo(converged=converged, loglik=-float(neg_loglik), iterations=int(iterations))
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
        }
    return doc


def model_from_dict(doc):
    spec = ModelSpec(num_stimuli=json_number(doc, "spec", "num_stimuli", integral=True),
                     degree=json_number(doc, "spec", "degree", integral=True))
    registry = StimulusRegistry(doc["spec"]["stimuli"])
    fit_info = None
    if doc.get("fit_info") is not None:
        converged = doc["fit_info"]["converged"]
        if not isinstance(converged, bool):
            raise ValueError(f"fit_info.converged must be true or false, got {converged!r}")
        fit_info = FitInfo(
            converged=converged,
            loglik=json_number(doc, "fit_info", "loglik"),
            iterations=json_number(doc, "fit_info", "iterations", integral=True),
        )
    return TrainedModel(
        spec=spec,
        stimuli=registry,
        beta=json_array(doc, "beta", shape=(spec.p,)),
        sigma2=json_number(doc, "sigma2"),
        sigma_gamma=json_array(doc, "sigma_gamma", shape=(spec.p, spec.p)),
        beta_cov=json_array(doc, "beta_cov", shape=(spec.p, spec.p)),
        t_star=json_number(doc, "t_star"),
        fit_info=fit_info,
    )


def save_model(model, path):
    """Write a model file atomically. Python's repr of floats keeps 17
    significant digits, so values round-trip exactly."""
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    return read_json(path, model_from_dict, "model file")
