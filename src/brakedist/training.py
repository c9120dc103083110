"""Population model fitting by numerical maximum likelihood.

The marginal covariance of one driver's log responses is
``V_d = sigma2 * (I + X_d @ Lambda @ X_d.T)`` with ``Lambda = Sigma_gamma /
sigma2``, block diagonal across drivers, so the Gaussian likelihood
factors per driver and the full n x n covariance is never materialized:
each driver's [X_d | y_d] is reduced once to its (p + 1) x (p + 1) QR
factor, and each evaluation factors one p x p matrix per driver by
Cholesky, for all drivers at once, which gives log det V_d, the GLS cross
products and r'V^-1 r as a sum of squares (``_PreparedDesigns``). For a fixed
Lambda, beta has the closed-form GLS solution (``gls_beta`` over
``marginal_cov`` blocks is its dense reference) and sigma2 the closed form
r'(V / sigma2)^-1 r / N, so the search runs over Lambda alone, on lme4's
profiled deviance (Bates et al. 2015, JSS 67(1), sec. 3.4). Lambda is kept
positive semidefinite by searching its Cholesky factor, whose diagonal is
stored in logs: theta holds the factor's entries on a boolean mask
(``chol_mask``). The search is trust-region Newton on the deviance's
analytic gradient and Hessian, built only at the points it accepts, from
Lambda = diag(X'X / N)^-1; the search's own solve at the point it ends on
also gives beta, sigma2 and beta's covariance. The deviance needs only
each driver's QR factor, and the start only diag(X'X). Everything outside
the search takes the variance parameters as the model stores them,
(sigma2, Sigma_gamma): ``log_likelihood`` evaluates the same kernel there.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import (FitInfo, ModelSpec, StimulusRegistry, TrainedModel, atomic_write_text, check_covariance,
                    design, json_array, json_list, json_number, read_json)
from .model import build_design  # the benchmark's tracer wraps it
from .numerics import NotPositiveDefinite, generalized_inverse, spd_solve

LOG2PI = math.log(2.0 * math.pi)

# Parameter-vector entries beyond this magnitude would overflow exp();
# the deviance treats such points as infeasible.
_PARAM_BOUND = 30.0

# The search stops once its quadratic model predicts a gain this small.
_PREDICTED_DECREASE_TOL = 1e-10

# A trust step counts as on the boundary once |s| is this close to the radius.
_BOUNDARY_RTOL = 1e-13


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
    """Each driver's design, compressed once for fast likelihood evaluation.

    [X_d | y_d] = Q_d R_d, with Q_d's columns orthonormal and R_d = [[R_x, r_y],
    [0, rho_d]] upper triangular, (p + 1) x (p + 1); zero rows pad it for a
    driver with n_d <= p events, whose rho_d is then 0 (Golub & Van Loan,
    Matrix Computations, 4th ed., sec. 5.3). The QR runs batched over the
    drivers that share an event count, on ``design``'s rows for the training
    set's columns, gathered into one batch per count. With
    T_d = I + R_x Lambda R_x' = C_d C_d' and
    [Z_x | z_y] = C_d^-1 [R_x | r_y],

        X' (V / sigma2)^-1 [X | y] = Z_x' [Z_x | z_y],
        log det (V / sigma2) = log det T = 2 sum log diag C,
        r' (V / sigma2)^-1 r = |z_y - Z_x beta|^2 + rho^2,

    so the cost is independent of the event counts, no n x n matrix is
    formed, and the quadratic form is a sum of squares that cannot cancel
    (lme4's penalized residual sum of squares; Bates et al. 2015, sec. 3).
    """

    def __init__(self, ts):
        xy = np.column_stack((design(ts.spec, ts.stimulus, ts.headway_s), np.log(ts.brt_s)))
        counts = ts.counts
        starts, p, self.total_n = np.cumsum(counts) - counts, xy.shape[1] - 1, xy.shape[0]
        self.r = np.zeros((counts.size, p + 1, p + 1))
        for n in np.unique(counts):
            group = np.flatnonzero(counts == n)
            self.r[group, : min(n, p + 1)] = np.linalg.qr(xy[starts[group, None] + np.arange(n)], mode="r")
        self.mean_square = np.einsum("ij,ij->j", xy[:, :p], xy[:, :p]) / self.total_n  # diag(X'X / N)

    def solve(self, lam):
        """The GLS fit at Lambda = Sigma_gamma / sigma2, by one batched
        Cholesky factorization of the T_d and one forward substitution.

        Returns (logdet, q, beta, info, cov, u, P): sum_d log det (V_d / sigma2),
        q = sum_d r_d' (V_d / sigma2)^-1 r_d at the GLS beta, beta, info =
        sum_d P_d with P_d = X_d' (V_d / sigma2)^-1 X_d, its generalized
        inverse cov, the rows u_d = X_d' (V_d / sigma2)^-1 r_d, and the
        blocks P_d.

        Raises:
            NotPositiveDefinite: if a T_d fails to factor or its factor is not finite.
        """
        p = self.r.shape[-1] - 1
        rx = self.r[:, :p, :p]
        try:
            c = np.linalg.cholesky(rx @ lam @ rx.swapaxes(1, 2) + np.eye(p))
            if not np.all(np.isfinite(c)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("a reduced covariance system is singular or not finite") from None
        # [Z_x | z_y] = C^-1 [R_x | r_y] by forward substitution, with the drivers on the
        # last axis so that each step reads contiguous rows; then drivers first again.
        ct, z = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in (c, self.r[:, :p]))
        for i in range(p):
            z[i] -= np.einsum("kd,kjd->jd", ct[i, :i], z[:i])
            z[i] /= ct[i, i]
        z = np.ascontiguousarray(z.transpose(2, 0, 1))
        zx, zy = z[:, :, :p], z[:, :, p]
        P = zx.swapaxes(1, 2) @ zx
        info = P.sum(axis=0)
        info = 0.5 * (info + info.T)
        cov = generalized_inverse(info)
        beta = cov @ np.einsum("dij,di->j", zx, zy)
        w = zy - zx @ beta
        logdet = 2.0 * float(np.sum(np.log(np.diagonal(c, axis1=1, axis2=2))))
        q = float(np.sum(w * w) + np.sum(self.r[:, p, p] ** 2))
        return logdet, q, beta, info, cov, np.einsum("dij,di->dj", zx, w), P

    def deviance(self, theta, free):
        """-loglik at the closed-form sigma2 = q / N, and the point it was
        taken at, (L, the ``solve`` at Lambda = L L'), from which
        ``derivatives`` builds the gradient and Hessian; theta holds the
        entries on the mask ``free`` of Lambda's Cholesky factor L
        (diagonal in logs). (inf, None) where theta is infeasible.

        The deviance is (N log 2pi + N log(q / N) + sum_d log det T_d + N) / 2.
        """
        if np.max(np.abs(theta)) > _PARAM_BOUND:
            return np.inf, None
        L = _factor(theta, free)
        try:
            solved = self.solve(L @ L.T)
        except NotPositiveDefinite:
            return np.inf, None
        logdet, q, *_ = solved
        if not q > 0:  # every residual fitted exactly
            return np.inf, None
        n = self.total_n
        return 0.5 * (n * (LOG2PI + math.log(q / n) + 1.0) + logdet), (L, solved)

    def derivatives(self, point, free):
        """Gradient and Hessian in theta of the deviance at ``point``, the
        one ``deviance`` returned, from that point's solve.

        beta and sigma2 sit at their optima, so the gradient in Lambda is
        G = (info - (N / q) sum_d u_d u_d') / 2 (Pinheiro & Bates 1996). Along
        symmetric E and F, dq[E] = -sum_d u_d' E u_d, d2 sum_d log det T_d[E, F]
        = -sum_d tr(P_d E P_d F) and d2q[E, F] = 2 sum_d u_d' E P_d F u_d
        - 2 b_E' info^- b_F, b_E = sum_d P_d E u_d. Theta moves Lambda = L L'
        along E_a = A_a L' + L A_a', A_a = dL / dtheta_a, adding G : d2Lambda.
        """
        L, (_, q, _, info, cov, u, P) = point
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
        d2q = 2.0 * upu - 2.0 * b.T @ cov @ b
        hess = J.T @ (0.5 * (n * (d2q / q - np.outer(dq, dq) / q**2) - sum_pp)) @ J
        hess += 2.0 * np.outer(scale, scale) * (cols[:, None] == cols) * G[np.ix_(rows, rows)]
        hess[rows == cols, rows == cols] += grad[rows == cols]
        return grad, 0.5 * (hess + hess.T)


def log_likelihood(ts, sigma2, sigma_gamma):
    """Marginal Gaussian log-likelihood of a training set.

    The fixed effects are profiled out: beta is set to its GLS estimate
    under these variance parameters, and the returned value is
    ``-0.5 * sum_d [n_d log 2pi + log det V_d + r_d' V_d^-1 r_d]`` with
    ``r_d = y_d - X_d beta``.

    Raises:
        ValueError: naming the argument, unless sigma2 is positive and
            finite and ``check_covariance`` accepts sigma_gamma.
        NotPositiveDefinite: as ``_PreparedDesigns.solve`` does.
    """
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    sigma_gamma = check_covariance("sigma_gamma", sigma_gamma, ts.spec.p, 1e-8)
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


def _trust_step(g, curv, basis, radius):
    """Minimizer s of the model g's + s'Hs / 2 over |s| <= radius, and the
    gain the model predicts for it (Nocedal & Wright 2006, sec. 4.3), given
    H's eigenvalues ``curv`` (ascending) and eigenvectors ``basis``: s =
    -(H + shift I)^-1 g at the smallest shift >= max(0, -lambda_min) that
    keeps s inside. Where s must reach the boundary, the shift solves
    1 / |s| = 1 / radius by Newton's method, safeguarded by the bracket it
    keeps (More & Sorensen 1983; Nocedal & Wright 2006, Algorithm 4.3). It
    is solved for mu = shift + lambda_min, so that no eigenvalue of
    H + shift I is formed by cancellation. Where g has no part along the
    eigenvector of a negative lambda_min (the hard case), or the bracket
    closes before |s| meets the radius, that eigenvector carries s to the
    boundary. The gain is taken in the eigenbasis too, so that it is the
    one s maximizes: never negative."""
    coef = basis.T @ g
    gaps = curv - curv[0]

    def shifted(mu):  # s in the eigenbasis; a part of g that is 0 stays 0
        return np.where(coef == 0.0, 0.0, -coef / (gaps + mu))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo = max(curv[0], 0.0)
        z = shifted(lo)  # the Newton step, if H is positive definite and it fits
        if np.linalg.norm(z) > radius:
            mu = hi = lo + np.linalg.norm(coef) / radius  # |s| <= |g| / mu <= radius
            z = shifted(mu)
            size = np.linalg.norm(z)
            while abs(size - radius) > _BOUNDARY_RTOL * radius:
                lo, hi = (mu, hi) if size > radius else (lo, mu)
                mu += (size / radius - 1.0) * size**2 / (z**2 @ (1.0 / (gaps + mu)))
                if not lo < mu < hi:  # a pole at lo, or a step out of the bracket
                    mu = 0.5 * (lo + hi)
                if not lo < mu < hi:  # no float left between them
                    z = shifted(hi)
                    break
                z = shifted(mu)
                size = np.linalg.norm(z)
    if curv[0] < 0 and abs(np.linalg.norm(z) - radius) > _BOUNDARY_RTOL * radius:
        z[0] = -math.copysign(math.sqrt(max(radius**2 - z[1:] @ z[1:], 0.0)), coef[0])
    return basis @ z, -(coef @ z + 0.5 * curv @ z**2)


def trust_newton(fn, x0, max_iter, derivatives):
    """Minimize ``fn``, which maps x to a value, infinite where x is
    infeasible, with gradient and Hessian ``derivatives(x)``, by trust-region
    Newton (Nocedal & Wright 2006, Algorithm 4.1). ``derivatives`` is asked
    only at the x of the latest ``fn`` call, once it is finite: at x0 and at
    each accepted trial. An infinite ``fn(x0)`` ends the search at once,
    unconverged, without asking for derivatives. The radius starts at 1:
    one early step could otherwise throw a log-diagonal entry out to where
    its gradient vanishes. A trial
    that lowers fn is accepted. The radius shrinks to a quarter of the step
    when fn gains less than a quarter of the predicted gain (or the trial is
    infeasible), and doubles when the prediction held at the boundary. The
    search has converged once the model predicts at most a gain of
    ``_PREDICTED_DECREASE_TOL`` within the radius.

    Returns:
        Search(x, fun, iterations, nfev, converged); nfev counts calls of fn,
        and x is x0 or the last accepted trial, where derivatives were last
        asked.
    """
    x = np.asarray(x0, dtype=float)
    f, nfev = fn(x), 1
    if not np.isfinite(f):
        return Search(x, f, 0, nfev, False)
    g, H = derivatives(x)
    curv, basis = np.linalg.eigh(H)
    radius = 1.0
    for iteration in range(1, max_iter + 1):
        step, predicted = _trust_step(g, curv, basis, radius)
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
            curv, basis = np.linalg.eigh(H)
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
    sigma2 Lambda and beta_cov come from the search's own solve at the
    point it ends on.

    Returns:
        TrainedModel; ``fit_info.converged`` is False when the iteration
        budget ran out first (the result is returned regardless).

    Raises:
        ValueError: if the deviance is not finite at the start.
    """
    if opts is None:
        opts = FitOptions()
    if len(ts.driver_ids) < 2:
        raise ValueError("at least 2 drivers required")
    p = ts.spec.p
    prepared = _PreparedDesigns(ts)
    free = chol_mask(p, ts.spec.num_stimuli if opts.block_diagonal else None)
    latest = accepted = None  # (theta, point) of the latest evaluation; the latest accepted point

    def deviance(theta):
        nonlocal latest
        value, point = prepared.deviance(theta, free)
        latest = theta, point
        return value

    def derivatives(theta):
        nonlocal accepted
        if theta is not latest[0]:
            raise RuntimeError("derivatives asked for away from the latest evaluation")
        accepted = latest[1]
        return prepared.derivatives(accepted, free)

    log_scale = -0.5 * np.log(prepared.mean_square, out=np.zeros(p), where=prepared.mean_square > 0)
    theta = np.clip(np.diag(log_scale)[free], -_PARAM_BOUND, _PARAM_BOUND)
    _, neg_loglik, iterations, _, converged = nelder_mead(deviance, theta, opts.max_iter,
                                                          derivatives=derivatives)
    if not np.isfinite(neg_loglik):  # the search stops at once on an infinite start
        raise ValueError("the likelihood is not finite at the start Lambda = diag(X'X / N)^-1")

    L, (_, q, beta, _, cov, *_) = accepted
    lam = L @ L.T
    sigma2 = q / prepared.total_n
    sigma_gamma = sigma2 * 0.5 * (lam + lam.T)
    beta_cov = sigma2 * cov
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
    registry = StimulusRegistry(json_list(doc, "spec", "stimuli"))
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
