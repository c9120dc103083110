"""Population model fitting by numerical maximum likelihood.

The marginal covariance of one driver's log responses is
``V_d = X_d @ Sigma_gamma @ X_d.T + sigma2 * I``, block diagonal across
drivers, so the Gaussian likelihood factors per driver and the full
n x n covariance is never materialized. For fixed variance parameters
the fixed effects have the closed-form GLS solution (``gls_beta`` over
``marginal_cov`` blocks is its dense reference), so the numerical search
runs only over (sigma, Sigma_gamma), with Sigma_gamma kept positive
semidefinite by optimizing a Cholesky factor whose diagonal is stored in
logs. The search is a Nelder-Mead simplex with seeded random restarts;
the profile likelihood at its optimum also gives beta and its covariance.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import FitInfo, ModelSpec, StimulusRegistry, TrainedModel, build_design
from .numerics import NotPositiveDefinite, PIVOT_RTOL, generalized_inverse, spd_solve
from .optimize import nelder_mead

LOG2PI = math.log(2.0 * math.pi)

# Parameter-vector entries beyond this magnitude would overflow exp();
# the objective treats such points as infeasible.
_PARAM_BOUND = 30.0

# Initial-simplex offsets, per parameter kind.
_STEP_LOG_SIGMA = 0.25
_STEP_CHOL_DIAG = 0.6
_STEP_CHOL_OFFDIAG = 0.08

_TOL = 1e-6  # -loglik spread or restart gain below which the search has settled


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
    if num_blocks:
        if p % num_blocks:
            raise ValueError("p must be divisible by the block count")
        width = p // num_blocks
        return [
            (i, j)
            for i in range(p)
            for j in range(p)
            if j <= i and i // width == j // width
        ]
    return [(i, j) for i in range(p) for j in range(i + 1)]


@dataclass(eq=False)
class VarianceParams:
    """Unconstrained parameterization of (sigma, Sigma_gamma).

    ``sigma = exp(log_sigma)``. ``chol_factor`` is lower triangular with
    its diagonal stored as logs, so ``Sigma_gamma = L @ L.T`` (with the
    diagonal exponentiated) is positive semidefinite for every parameter
    value the optimizer can visit.
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

    def chol_lower(self):
        """Lower-triangular factor with the log diagonal exponentiated."""
        L = self.chol_factor.copy()
        np.fill_diagonal(L, np.exp(np.diag(L)))
        return L

    def sigma_gamma(self):
        L = self.chol_lower()
        sg = L @ L.T
        return 0.5 * (sg + sg.T)

    def to_vector(self, indices):
        rows, cols = zip(*indices)
        return np.concatenate(([self.log_sigma], self.chol_factor[rows, cols]))

    @classmethod
    def from_vector(cls, p, vec, indices):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (1 + len(indices),):
            raise ValueError(f"expected vector of length {1 + len(indices)}")
        chol = np.zeros((p, p))
        rows, cols = zip(*indices)
        chol[rows, cols] = vec[1:]
        return cls(log_sigma=float(vec[0]), chol_factor=chol)


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


class _PreparedDesigns:
    """Per-driver sufficient statistics for fast likelihood evaluation.

    The cross products X'X, X'y, y'y per driver do not depend on the
    variance parameters, so they are accumulated once. Each likelihood
    evaluation then works on batched p x p systems via the Woodbury
    identity and the matrix determinant lemma,

        V^-1 = (1/s2) [I - U (s2 I_p + U'U)^-1 U'],    U = X L,
        log det V = (n - p) log s2 + log det(s2 I_p + L'X'X L),

    which keeps the cost independent of the per-driver observation
    counts and never materializes any n x n matrix.
    """

    def __init__(self, ts):
        self.spec = ts.spec
        self.driver_ids = list(ts.drivers.keys())
        per_driver = [build_design(ts.spec, ts.drivers[d]) for d in self.driver_ids]
        self.designs = per_driver
        self.counts = np.array([X.shape[0] for X, _ in per_driver])
        self.total_n = int(self.counts.sum())
        self.xtx = np.stack([X.T @ X for X, _ in per_driver])
        self.xty = np.stack([X.T @ y for X, y in per_driver])
        self.yty = np.array([float(y @ y) for _, y in per_driver])

    def profile_loglik(self, params):
        """Profile log-likelihood: GLS beta is computed for these
        variance parameters and plugged into the Gaussian density.

        Returns (loglik, beta, info) with info = X' V^-1 X accumulated
        across drivers.

        Raises:
            NotPositiveDefinite: if the reduced systems fail to factor
                (possible only at numerically extreme parameters).
        """
        p = self.spec.p
        sigma2 = params.sigma2
        L = params.chol_lower()

        # K_d = s2 I + L' X'X L, shared by every Woodbury product below.
        proj = self.xtx @ L  # (D, p, p): X'X L
        K = L.T @ proj
        K = 0.5 * (K + K.transpose(0, 2, 1))
        idx = np.arange(p)
        K[:, idx, idx] += sigma2
        if not np.all(np.isfinite(K)):
            raise NotPositiveDefinite("variance parameters overflow the reduced system")
        try:
            chol = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("reduced covariance system failed to factor") from None
        diag = chol[:, idx, idx]
        floors = p * PIVOT_RTOL * np.max(np.abs(K[:, idx, idx]), axis=1)
        if np.any(diag**2 <= floors[:, None]):
            raise NotPositiveDefinite("reduced covariance system is numerically singular")
        logdet = float(np.sum(self.counts - p) * math.log(sigma2) + 2.0 * np.sum(np.log(diag)))

        # info = sum_d X'V^-1 X, score = sum_d X'V^-1 y.
        u = self.xty @ L  # (D, p): L' X'y  (L' x = (x' L)' for vectors)
        rhs = np.concatenate([proj.transpose(0, 2, 1), u[:, :, None]], axis=2)
        H = np.linalg.solve(K, rhs)
        info = (self.xtx.sum(axis=0) - np.einsum("dij,djk->ik", proj, H[:, :, :p])) / sigma2
        info = 0.5 * (info + info.T)
        score = (self.xty.sum(axis=0) - np.einsum("dij,dj->i", proj, H[:, :, p])) / sigma2
        beta = generalized_inverse(info) @ score

        # Residual quadratic form from exact residual cross products.
        xtr = self.xty - self.xtx @ beta
        rtr = self.yty - 2.0 * self.xty @ beta + (self.xtx @ beta) @ beta
        v = xtr @ L
        w = np.linalg.solve(K, v[:, :, None])[:, :, 0]
        quad = float(np.sum(rtr - np.einsum("di,di->d", v, w)) / sigma2)

        loglik = -0.5 * (self.total_n * LOG2PI + logdet + quad)
        return loglik, beta, info


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
    """Knobs for the maximum-likelihood search."""

    max_iter: int = 8000
    restarts: int = 3
    seed: int = 42
    block_diagonal: bool = False


def _per_driver_ols(prepared):
    """Independent OLS per driver: coefficient matrix plus pooled residual
    variance (rank-aware)."""
    coefs = []
    rss, dof = 0.0, 0
    for X, y in prepared.designs:
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        coefs.append(coef)
        resid = y - X @ coef
        rss += float(resid @ resid)
        dof += max(X.shape[0] - int(rank), 0)
    if dof > 0 and rss > 0:
        sigma2 = rss / dof
    else:
        sigma2 = max(float(np.var(np.concatenate([y for _, y in prepared.designs]))), 1e-8)
    return np.array(coefs), sigma2


def _moment_start(coefs, indices, sigma2_0):
    """Second starting point: the sample covariance of the per-driver OLS
    coefficients ``coefs`` (one row per driver), PSD-projected.

    The scale-only start (0.1 sigma I) sits many log-units below the
    individual-effect variances whenever drivers genuinely differ, and
    the simplex search can stall in an inferior basin on the way up; the
    moment estimate starts it inside the right basin instead. Returns
    None when the estimate is unusable (too few drivers, non-finite).
    """
    if coefs.shape[0] < 2:
        return None
    cov = np.cov(coefs.T)
    cov = np.atleast_2d(cov)
    if not np.all(np.isfinite(cov)):
        return None
    p = cov.shape[0]
    mask = np.zeros((p, p), dtype=bool)
    rows, cols = zip(*indices)
    mask[rows, cols] = True
    cov = cov * (mask | mask.T)  # honor the block-diagonal reduction
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = max(float(eigvals[-1]), 1e-6) * 1e-6
    cov = (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T
    chol = np.linalg.cholesky(cov + floor * np.eye(p))
    np.fill_diagonal(chol, np.log(np.diag(chol)))
    return VarianceParams(0.5 * math.log(sigma2_0), chol)


def fit(ts, opts=None):
    """Fit the population model by maximum likelihood.

    Nelder-Mead over the variance parameters (profile likelihood in
    beta), from two starts: the scale-only guess (0.1 sigma I) and the
    sample covariance of per-driver OLS coefficients. Seeded random
    restarts then rebuild the simplex around the best point so far, which
    is a vertex of each restart simplex, so the objective never regresses.
    beta and beta_cov are the profile likelihood's at the final best point.

    Returns:
        TrainedModel; ``fit_info.converged`` is False when the search
        was still finding improvements larger than ``_TOL`` when the
        iteration budget ran out (the result is returned regardless).
    """
    if opts is None:
        opts = FitOptions()
    if len(ts.drivers) < 2:
        raise ValueError("at least 2 drivers required")
    p = ts.spec.p
    prepared = _PreparedDesigns(ts)
    indices = chol_indices(p, ts.spec.num_stimuli if opts.block_diagonal else None)

    def objective(vec):
        if np.max(np.abs(vec)) > _PARAM_BOUND:
            return np.inf
        params = VarianceParams.from_vector(p, vec, indices)
        try:
            loglik, _, _ = prepared.profile_loglik(params)
        except NotPositiveDefinite:
            return np.inf
        return -loglik

    coefs, sigma2_0 = _per_driver_ols(prepared)
    log_sigma0 = 0.5 * math.log(sigma2_0)
    chol0 = np.zeros((p, p))
    np.fill_diagonal(chol0, math.log(0.1) + log_sigma0)
    starts = [VarianceParams(log_sigma0, chol0).to_vector(indices)]
    moment = _moment_start(coefs, indices, sigma2_0)
    if moment is not None:
        starts.append(moment.to_vector(indices))

    base_step = np.array(
        [_STEP_LOG_SIGMA] + [_STEP_CHOL_DIAG if i == j else _STEP_CHOL_OFFDIAG for i, j in indices]
    )

    rng = np.random.Generator(np.random.Philox(key=opts.seed % (1 << 64)))
    best = None
    iterations = 0
    for x0 in starts:
        result = nelder_mead(objective, x0, base_step, tol=_TOL, max_iter=opts.max_iter)
        iterations += result.iterations
        if best is None or result.fx <= best.fx:
            best = result
    final_gain = np.inf
    for restart in range(opts.restarts):
        scale = 0.5**restart
        steps = (
            base_step
            * scale
            * rng.uniform(0.25, 1.0, size=base_step.size)
            * rng.choice([-1.0, 1.0], size=base_step.size)
        )
        result = nelder_mead(objective, best.x, steps, tol=_TOL, max_iter=opts.max_iter)
        iterations += result.iterations
        final_gain = best.fx - result.fx
        if result.fx <= best.fx:
            best = result

    # Converged when the search settled: either the multistart stopped
    # producing objective improvement beyond the tolerance, or the last
    # simplex collapsed on its own.
    converged = bool(best.converged or (opts.restarts > 0 and final_gain < _TOL))

    params = VarianceParams.from_vector(p, best.x, indices)
    loglik, beta, info = prepared.profile_loglik(params)
    beta_cov = generalized_inverse(info)
    beta_cov = 0.5 * (beta_cov + beta_cov.T)

    return TrainedModel(
        spec=ts.spec,
        stimuli=ts.stimuli,
        beta=beta,
        sigma2=params.sigma2,
        sigma_gamma=params.sigma_gamma(),
        beta_cov=beta_cov,
        fit_info=FitInfo(
            converged=converged,
            loglik=float(loglik),
            iterations=int(iterations),
            seed=int(opts.seed),
        ),
    )


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
    """Write a model file. Python's repr of floats keeps 17 significant
    digits, so values round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
