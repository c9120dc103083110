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
(``chol_mask``). The search is trust-region Newton on the deviance's
analytic gradient and Hessian, from Lambda = diag(X'X / N)^-1; the solve at
its optimum also gives beta, sigma2 and beta's covariance. The deviance and
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
from .numerics import NotPositiveDefinite, check_symmetric, generalized_inverse, is_psd, spd_solve

LOG2PI = math.log(2.0 * math.pi)

# Parameter-vector entries beyond this magnitude would overflow exp();
# the deviance treats such points as infeasible.
_PARAM_BOUND = 30.0

# The search stops once its quadratic model predicts a gain this small.
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

    def solve(self, lam):
        """The GLS fit at Lambda = Sigma_gamma / sigma2, by one batched solve.

        Returns (logdet, q, beta, info, u, P): sum_d log det (V_d / sigma2),
        q = sum_d r_d' (V_d / sigma2)^-1 r_d at the GLS beta, beta, info =
        sum_d P_d with P_d = X_d' (V_d / sigma2)^-1 X_d, the rows
        u_d = X_d' (V_d / sigma2)^-1 r_d, and the blocks P_d.

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
        return float(np.sum(logdet_m)), q, beta, info, u, W[:, :, :p]

    def deviance(self, theta, free):
        """-loglik at the closed-form sigma2 = q / N, with its gradient and
        Hessian in ``theta``, the entries on the mask ``free`` of Lambda's
        Cholesky factor L (diagonal in logs); (inf, None, None) where theta
        is infeasible.

        The deviance is (N log 2pi + N log(q / N) + sum_d log det M_d + N) / 2.
        beta and sigma2 sit at their optima, so the gradient in Lambda is
        G = (info - (N / q) sum_d u_d u_d') / 2 (Pinheiro & Bates 1996). Along
        symmetric E and F, dq[E] = -sum_d u_d' E u_d, d2 sum_d log det M_d[E, F]
        = -sum_d tr(P_d E P_d F) and d2q[E, F] = 2 sum_d u_d' E P_d F u_d
        - 2 b_E' info^- b_F, b_E = sum_d P_d E u_d. Theta moves Lambda = L L'
        along E_a = A_a L' + L A_a', A_a = dL / dtheta_a, adding G : d2Lambda.
        """
        if np.max(np.abs(theta)) > _PARAM_BOUND:
            return np.inf, None, None
        L = _factor(theta, free)
        try:
            logdet, q, _, info, u, P = self.solve(L @ L.T)
        except NotPositiveDefinite:
            return np.inf, None, None
        if not q > 0:  # cancelled to nothing, far from the optimum
            return np.inf, None, None
        n, (d, p, _) = self.total_n, P.shape
        G = 0.5 * (info - (n / q) * (u.T @ u))
        rows, cols = free.nonzero()
        scale = np.where(rows == cols, np.diag(L)[rows], 1.0)  # A_a = scale_a e_i e_k'
        J = np.zeros((rows.size, p, p))  # A_a L', one per entry of theta
        J[np.arange(rows.size), rows] = (L[:, cols] * scale).T
        J = (J + J.transpose(0, 2, 1)).reshape(rows.size, -1).T  # columns vec(E_a)
        grad = J.T @ G.ravel()

        # Bilinear forms in Lambda over row-major vec(E), vec(F).
        flat = P.reshape(d, p * p)
        sum_pp = (flat.T @ flat).reshape(p, p, p, p).transpose(0, 2, 1, 3).reshape(p * p, p * p)
        uu = np.einsum("dj,dn->djn", u, u).reshape(d, p * p)
        upu = (uu.T @ flat).reshape(p, p, p, p).transpose(0, 2, 3, 1).reshape(p * p, p * p)
        b = (P.transpose(1, 2, 0).reshape(p * p, d) @ u).reshape(p, p * p)  # b[i, (j, k)]
        dq = -(u.T @ u).ravel()
        d2q = 2.0 * upu - 2.0 * b.T @ generalized_inverse(info) @ b
        hess = J.T @ (0.5 * (n * (d2q / q - np.outer(dq, dq) / q**2) - sum_pp)) @ J
        hess += 2.0 * np.outer(scale, scale) * (cols[:, None] == cols) * G[np.ix_(rows, rows)]
        hess[rows == cols, rows == cols] += grad[rows == cols]
        return 0.5 * (n * (LOG2PI + math.log(q / n) + 1.0) + logdet), grad, 0.5 * (hess + hess.T)


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
    logdet, q, *_ = _PreparedDesigns(ts).solve(sigma_gamma / sigma2)
    return -0.5 * (ts.num_observations * (LOG2PI + math.log(sigma2)) + logdet + q / sigma2)


@dataclass
class FitOptions:
    """Knobs for the maximum-likelihood search. ``max_iter`` caps the search's
    iterations. ``restarts`` changes nothing (the search is deterministic
    and has one start); it is kept only because the benchmark harness
    builds ``FitOptions(restarts=1)``."""

    max_iter: int = 8000
    restarts: int = 3
    block_diagonal: bool = False


Search = namedtuple("Search", "x fun iterations nfev converged")


def _trust_step(g, H, radius):
    """Minimizer s of the model g's + s'Hs / 2 over |s| <= radius, and the
    gain the model predicts for it (Nocedal & Wright 2006, sec. 4.3): s =
    -(H + shift I)^-1 g at the smallest shift >= max(0, -lambda_min) that
    keeps s inside, found by bisection in H's eigenbasis. Where g has no
    part along the eigenvector of a negative lambda_min (the hard case),
    that eigenvector carries s to the boundary. The gain is taken in the
    eigenbasis too, so that it is the one s maximizes: never negative."""
    curv, basis = np.linalg.eigh(H)
    coef = basis.T @ g

    def shifted(shift):  # s in the eigenbasis; a part of g that is 0 stays 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(coef == 0.0, 0.0, -coef / (curv + shift))

    z = shifted(0.0)  # the Newton step, if H is positive definite and it fits
    if curv[0] <= 0 or np.linalg.norm(z) > radius:
        lo = max(0.0, -curv[0])
        hi = lo + np.linalg.norm(g) / radius  # |s| <= |g| / (curv[0] + shift) <= radius
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.linalg.norm(shifted(mid)) > radius else (lo, mid)
        z = shifted(hi)
        if curv[0] < 0:
            z[0] -= math.copysign(math.sqrt(max(radius**2 - z @ z, 0.0)), coef[0])
    return basis @ z, -(coef @ z + 0.5 * curv @ z**2)


def trust_newton(fn, x0, max_iter, derivatives):
    """Minimize ``fn``, which maps x to a value, infinite where x is
    infeasible, with gradient and Hessian ``derivatives(x)`` wherever
    ``fn(x)`` was finite, by trust-region Newton (Nocedal & Wright 2006,
    Algorithm 4.1). The radius starts at 1: one early step could otherwise
    throw a log-diagonal entry out to where its gradient vanishes. A trial
    that lowers fn is accepted. The radius shrinks to a quarter of the step
    when fn gains less than a quarter of the predicted gain (or the trial is
    infeasible), and doubles when the prediction held at the boundary. The
    search has converged once the model predicts at most a gain of
    ``_PREDICTED_DECREASE_TOL`` within the radius.

    Returns:
        Search(x, fun, iterations, nfev, converged); nfev counts calls of fn.
    """
    x = np.asarray(x0, dtype=float)
    f, nfev = fn(x), 1
    g, H = derivatives(x)
    radius = 1.0
    for iteration in range(1, max_iter + 1):
        step, predicted = _trust_step(g, H, radius)
        if not predicted > _PREDICTED_DECREASE_TOL:
            return Search(x, f, iteration, nfev, True)
        trial = x + step
        f_new, nfev = fn(trial), nfev + 1
        gain = (f - f_new) / predicted  # -inf where the trial is infeasible
        length = np.linalg.norm(step)
        if gain < 0.25:
            radius = 0.25 * length
        elif gain > 0.75 and length >= 0.99 * radius:
            radius *= 2.0
        if gain > 0:
            x, f = trial, f_new
            g, H = derivatives(x)
    return Search(x, f, max_iter, nfev, False)


# ``fit`` calls ``trust_newton`` by the name perfbench hooks, kept from the Nelder-Mead
# search, to count deviance evaluations and time its host-speed kernel.
nelder_mead = trust_newton


def fit(ts, opts=None):
    """Fit the population model by maximum likelihood.

    ``trust_newton`` on the profiled deviance over Lambda = Sigma_gamma /
    sigma2 (``_PreparedDesigns.deviance``), from Lambda = diag(X'X / N)^-1,
    which scales every design column to a unit mean square (a column that
    no event reaches starts at 1). beta, sigma2 = q / N, Sigma_gamma =
    sigma2 Lambda and beta_cov come from the solve at the optimum.

    Returns:
        TrainedModel; ``fit_info.converged`` is False when the iteration
        budget ran out first (the result is returned regardless).

    Raises:
        ValueError: if the deviance is not finite at the start.
    """
    if opts is None:
        opts = FitOptions()
    if len(ts.drivers) < 2:
        raise ValueError("at least 2 drivers required")
    p = ts.spec.p
    prepared = _PreparedDesigns(ts)
    free = chol_mask(p, ts.spec.num_stimuli if opts.block_diagonal else None)
    solved = [None, None]  # the last theta evaluated, and the derivatives there

    def deviance(theta):
        value, *derivs = prepared.deviance(theta, free)
        solved[:] = theta, derivs
        return value

    def derivatives(theta):
        return solved[1] if theta is solved[0] else prepared.deviance(theta, free)[1:]

    mean_square = prepared.xtx.sum(axis=0).diagonal() / prepared.total_n
    log_scale = -0.5 * np.log(mean_square, out=np.zeros(p), where=mean_square > 0)
    theta = np.clip(np.diag(log_scale)[free], -_PARAM_BOUND, _PARAM_BOUND)
    if not np.isfinite(deviance(theta)):
        raise ValueError("the likelihood is not finite at the start Lambda = diag(X'X / N)^-1")
    theta, neg_loglik, iterations, _, converged = nelder_mead(deviance, theta, opts.max_iter,
                                                              derivatives=derivatives)

    L = _factor(theta, free)
    lam = L @ L.T
    _, q, beta, info, *_ = prepared.solve(lam)
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
